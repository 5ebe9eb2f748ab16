"""Every numerical threshold of the package, defined once.

Constants only.  Each module imports the ones it reads; a value changes
here or nowhere, and ``tests/test_tolerances.py`` pins each of them.
The acceptance criteria in `selftest` keep their own gates, spelled out
in their detail strings.
"""

# core: a square matrix is singular when its reciprocal condition number
# sigma_min / sigma_max falls below this (or sigma_max is 0)
RCOND_SINGULAR = 1e-12

# spectral: eigenvalues closer than CLUSTER_RTOL * (1 + |x|) (chained)
# merge into one idempotent of a spectral decomposition
CLUSTER_RTOL = 1e-8
# spectral: x is in the closed cone when its smallest eigenvalue is >= -tol
POSITIVITY_TOL = 1e-10
# spectral: inv and negative powers need every |eigenvalue| above this
INVERTIBILITY_TOL = 1e-10
# spectral: x is in the open cone when its smallest eigenvalue is > tol
INTERIOR_TOL = 1e-9
# spectral: power(x, alpha) takes the integer route when alpha is this close
# to an integer
INTEGER_EXPONENT_TOL = 1e-12

# structure: |p o p - p| <= tol * (1 + |p|) in the order-unit norm
PROJECTION_TOL = 1e-10
# structure: entrywise residual off the span of the factor units
# <= tol * (1 + |x|)
CENTRAL_TOL = 1e-10

# ordermaps: |T e - e| and the basis-pair defect of a Jordan homomorphism,
# the latter relative to 1 + |T|_2^2
JORDAN_HOM_TOL = 1e-9
# ordermaps: a piecewise-linear bijection is a scaling when all its slopes
# agree within this relative tolerance
SCALING_RTOL = 1e-12

# verify: a draw of [0, x] farther than this (trace norm) from the ray
# through x refutes extremality
SPAN_DISTANCE_TOL = 1e-7
# verify: the extremality oracle needs |<x, e> - 1| within this
TRACE_NORMALIZED_TOL = 1e-9
# verify: relative singular-value cutoff of the commutator system
RANK_CUTOFF = 1e-9
# verify: a random central element is degenerate when two of its
# eigenvalues lie closer than this
CENTER_GAP_TOL = 1e-6
# verify: check_order_preserving fails a trial whose f(z) - f(x) has an
# eigenvalue below -tol
ORDER_VIOLATION_TOL = 1e-9
# verify: check_linearity_blackbox fails a trial whose additivity or
# homogeneity defect exceeds this in the order-unit norm
LINEARITY_DEFECT_TOL = 1e-8
