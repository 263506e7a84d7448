"""Stable identifiers for the mathematical facts verdicts rest on.

Reports attach these so a verdict can always be traced to the result that
justifies it.
"""

LEFT_FAILS_ABOVE_ONE = "spectral-radius-above-one-blocks-left-ampleness"
RIGHT_FROM_AMPLE_EIGENVECTOR = "ample-eigenvector-divisor-gives-right-ampleness"
UNIT_CIRCLE_LEFT_UNDECIDED = "root-of-unity-action-left-ampleness-undecided"
RADIUS_EXCEEDS_ONE_WHEN_NOT_UNIT_CIRCLE = (
    "invertible-integer-action-off-unit-circle-has-radius-above-one"
)
POLYNOMIAL_RING = "identity-power-ring-is-the-noetherian-polynomial-ring"
GENERATED_IN_DEGREE_ONE = "binary-power-ring-on-the-line-generated-in-degree-one"
NEW_GENERATORS_EVERY_DEGREE = "power-ring-needs-new-generators-in-every-degree"
EXPONENTIAL_GROWTH_NOT_NOETHERIAN = "exponential-section-growth-rules-out-noetherian"
RIGHT_IDEAL_CHAIN = "power-ring-monomial-right-ideal-chain-ascends-strictly"
LEFT_IDEAL_CHAIN = "power-ring-monomial-left-ideal-chain-ascends-strictly"
PERSISTENT_TOP_COHOMOLOGY = "persistent-positive-cohomology-blocks-left-ampleness"
EVENTUAL_VANISHING = "eventual-positive-cohomology-vanishing-supports-right-ampleness"
