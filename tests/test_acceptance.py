"""Acceptance gate: every criterion runs at its stated scale and tolerance.

The full suite executes once per session (about 35 s on a 2-core x86_64
machine); each test below asserts one criterion and prints its pass/fail
line.  Run with ``-s`` (or look at captured output) to see the lines.
"""

import pytest

from jordancone.selftest import run_acceptance


@pytest.fixture(scope="module")
def acceptance():
    results, elapsed = run_acceptance()
    return {r.number: r for r in results}, elapsed


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(acceptance, number):
    results, _ = acceptance
    result = results[number]
    print(result.line())
    assert result.passed, result.line()


def test_suite_runtime_within_budget(acceptance):
    _, elapsed = acceptance
    print(f"acceptance suite elapsed: {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0
