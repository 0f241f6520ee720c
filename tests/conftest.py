import hypothesis
import numpy as np
import pytest

from georadon.geometry import Space, point

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ci")


def haar_single(dim, rng):
    """One Haar draw of SO(dim) at a time: QR of a Gaussian matrix, R's
    diagonal made positive, the last column flipped when det < 0."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, -1] = -q[:, -1]
    return q


def random_point(space: Space, rng: np.random.Generator):
    if space.kind == "euclidean":
        from georadon.geometry import Point
        return Point(rng.normal(size=space.n))
    if space.kind == "sphere":
        v = rng.normal(size=space.n + 1)
        return point(space, v / np.linalg.norm(v))
    w = rng.normal(size=space.n)
    w *= rng.uniform(0.0, 1.5) / max(np.linalg.norm(w), 1e-12)
    c = np.concatenate([np.sinh(np.linalg.norm(w)) * w
                        / max(np.linalg.norm(w), 1e-12),
                        [np.cosh(np.linalg.norm(w))]])
    return point(space, c)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
