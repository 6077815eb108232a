"""A test-only zero-discord state generator, shared by the test modules."""
import numpy as np

from qsep import states
from qsep.linalg import kron_all


def random_classical_state(rng: np.random.Generator) -> np.ndarray:
    """Mixture diagonal in a random product basis (zero discord everywhere).

    The diagonal is supported on m ~ U{2..8} of the 8 product-basis outcomes
    with Dirichlet(1) weights.
    """
    us = [states._haar_unitary_2(rng) for _ in range(3)]
    u = kron_all(us)
    m = int(rng.integers(2, 8 + 1))
    support = rng.choice(8, size=m, replace=False)
    p = np.zeros(8)
    p[support] = rng.dirichlet(np.ones(m))
    return (u * p) @ u.conj().T
