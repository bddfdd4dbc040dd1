"""Closed-form error bounds from the paper.

Each function computes the right-hand side of one of the paper's guarantees,
given the workload quantities (``F1``, ``F1_res(k)``, ...) and the algorithm
parameters (``m``, ``k``, the tail constants ``A`` and ``B``).  The
verification helpers in the rest of :mod:`repro.core` compare these values
against the errors actually observed when running the algorithms.
"""

from __future__ import annotations

import math
from typing import Tuple, Type, Union

from repro.algorithms.array_summary import ArraySummary
from repro.algorithms.base import FrequencyEstimator
from repro.algorithms.frequent import Frequent
from repro.algorithms.frequent_real import FrequentR
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.algorithms.space_saving_real import SpaceSavingR

AlgorithmSpec = Union[str, Type[FrequencyEstimator], FrequencyEstimator]

#: Tail-guarantee constants (A, B) proved for each algorithm.
#: FREQUENT and SPACESAVING (and their weighted variants) achieve A = B = 1
#: (Appendices B and C, Theorem 10), and so does ArraySummary, FREQUENT_R
#: applied one chunk at a time (its docstring has the proof); the generic
#: HTC argument of Theorem 2 gives (A, 2A) = (1, 2) for any heavy-tolerant
#: algorithm with an F1 guarantee of constant A = 1.
_TAIL_CONSTANTS = {
    "frequent": (1.0, 1.0),
    "spacesaving": (1.0, 1.0),
    "frequentr": (1.0, 1.0),
    "spacesavingr": (1.0, 1.0),
    "arraysummary": (1.0, 1.0),
    "htc": (1.0, 2.0),
}

_CLASS_NAMES = {
    ArraySummary: "arraysummary",
    Frequent: "frequent",
    FrequentR: "frequentr",
    SpaceSaving: "spacesaving",
    SpaceSavingHeap: "spacesaving",
    SpaceSavingR: "spacesavingr",
}


def tail_constants_for(algorithm: AlgorithmSpec) -> Tuple[float, float]:
    """Return the proved k-tail constants ``(A, B)`` for an algorithm.

    Accepts an algorithm name (``"frequent"``, ``"spacesaving"``, ``"htc"``
    for the generic Theorem 2 constants), a class, or an instance.

    Examples
    --------
    >>> tail_constants_for("frequent")
    (1.0, 1.0)
    >>> tail_constants_for("htc")
    (1.0, 2.0)
    """
    if isinstance(algorithm, str):
        key = algorithm.replace("_", "").replace("-", "").lower()
    elif isinstance(algorithm, type):
        key = _CLASS_NAMES.get(algorithm, "")
    else:
        key = _CLASS_NAMES.get(type(algorithm), "")
    if key not in _TAIL_CONSTANTS:
        raise ValueError(
            f"no proved tail constants known for {algorithm!r}; "
            f"expected one of {sorted(_TAIL_CONSTANTS)}"
        )
    return _TAIL_CONSTANTS[key]


def heavy_hitter_bound(f1_value: float, num_counters: int, a: float = 1.0) -> float:
    """Definition 1: the classical guarantee ``delta_i <= A * F1 / m``."""
    if num_counters < 1:
        raise ValueError(f"num_counters must be >= 1, got {num_counters}")
    return a * f1_value / num_counters


def k_tail_bound(
    residual_value: float,
    num_counters: int,
    k: int,
    a: float = 1.0,
    b: float = 1.0,
) -> float:
    """Definition 2: the residual guarantee ``delta_i <= A*F1_res(k)/(m - Bk)``.

    Raises ``ValueError`` when ``m <= Bk`` (the bound is vacuous there --
    Theorem 2 requires ``k < m / (2A)`` and the sharp analyses ``k < m``).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    denominator = num_counters - b * k
    if denominator <= 0:
        raise ValueError(
            f"the k-tail bound requires m > B*k (m={num_counters}, B={b}, k={k})"
        )
    return a * residual_value / denominator


def k_sparse_recovery_bound(
    residual_value: float,
    residual_p_value: float,
    k: int,
    epsilon: float,
    p: float,
) -> float:
    """Theorem 5: ``||f - f'||_p <= eps*F1_res(k)/k^(1-1/p) + (Fp_res(k))^(1/p)``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return epsilon * residual_value / (k ** (1.0 - 1.0 / p)) + residual_p_value ** (
        1.0 / p
    )


def counters_for_k_sparse(
    k: int, epsilon: float, a: float = 1.0, b: float = 1.0, one_sided: bool = True
) -> int:
    """Counter budget Theorem 5 prescribes: ``m = k*(3A/eps + B)``.

    One-sided algorithms (FREQUENT underestimates, SPACESAVING overestimates)
    only need ``m = k*(2A/eps + B)``, as noted after the theorem.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    factor = 2.0 if one_sided else 3.0
    return int(math.ceil(k * (factor * a / epsilon + b)))


def residual_estimation_bounds(
    residual_value: float, epsilon: float
) -> Tuple[float, float]:
    """Theorem 6: ``F1 - ||f'||_1`` lies in ``[(1-eps), (1+eps)] * F1_res(k)``."""
    return (1.0 - epsilon) * residual_value, (1.0 + epsilon) * residual_value


def counters_for_residual_estimation(
    k: int, epsilon: float, a: float = 1.0, b: float = 1.0
) -> int:
    """Counter budget Theorem 6 prescribes: ``m = B*k + A*k/eps``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return int(math.ceil(b * k + a * k / epsilon))


def m_sparse_recovery_bound(
    residual_value: float, k: int, epsilon: float, p: float
) -> float:
    """Theorem 7: ``||f - f'||_p <= (1+eps) * (eps/k)^(1-1/p) * F1_res(k)``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return (1.0 + epsilon) * (epsilon / k) ** (1.0 - 1.0 / p) * residual_value


def zipf_error_bound(f1_value: float, epsilon: float) -> float:
    """Theorem 8: with the prescribed budget the error is at most ``eps * F1``."""
    return epsilon * f1_value


def zipf_counters_needed(
    epsilon: float, alpha: float, a: float = 1.0, b: float = 1.0
) -> int:
    """Theorem 8's counter budget ``m = (A + B) * (1/eps)^(1/alpha)``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if alpha < 1:
        raise ValueError(f"Theorem 8 requires alpha >= 1, got {alpha}")
    return int(math.ceil((a + b) * (1.0 / epsilon) ** (1.0 / alpha)))


def topk_counters_needed(
    k: int, alpha: float, n: int, a: float = 1.0, b: float = 1.0
) -> int:
    """Theorem 9's counter budget for exact-order top-k on Zipf(alpha) data.

    For ``alpha > 1`` the budget is ``O(k * (k/alpha)^(1/alpha))``; for
    ``alpha = 1`` it is ``O(k^2 * ln n)``.  We return the concrete budget
    obtained by plugging the required error rate
    ``eps = alpha / (2 * zeta(alpha) * (k+1)^alpha * k)`` into Theorem 8's
    ``m = (A+B) * (1/eps)^(1/alpha)``, evaluating ``zeta`` over ``n`` items.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if alpha < 1:
        raise ValueError(f"Theorem 9 requires alpha >= 1, got {alpha}")
    if n < k + 1:
        raise ValueError(f"n must exceed k, got n={n}, k={k}")
    zeta = sum(1.0 / (i ** alpha) for i in range(1, n + 1))
    epsilon = alpha / (2.0 * zeta * ((k + 1) ** alpha) * k)
    return int(math.ceil((a + b) * (1.0 / epsilon) ** (1.0 / alpha)))


def merged_tail_constants(a: float = 1.0, b: float = 1.0) -> Tuple[float, float]:
    """Theorem 11: merging summaries with constants (A, B) yields (3A, A+B)."""
    return 3.0 * a, a + b


def lower_bound_error(
    num_counters: int, k: int, repetitions: int
) -> float:
    """Theorem 13: the error forced on one of the two adversarial streams.

    For the construction with parameter ``X`` (``repetitions``), both streams
    have ``F1_res(k)`` close to ``X*m``, and one of them must suffer error at
    least ``X/2 >= F1_res(k) / (2m + 2k/X)``.  We return ``X / 2``.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return repetitions / 2.0


def minimum_counters_for_lower_bound(num_counters: int, k: int) -> float:
    """Theorem 13's conclusion: achieving error ``F1_res(k)/(m-k)`` needs
    at least ``(m - k) / 2`` counters."""
    if k < 0 or k > num_counters:
        raise ValueError(f"k must satisfy 0 <= k <= m, got k={k}, m={num_counters}")
    return (num_counters - k) / 2.0
