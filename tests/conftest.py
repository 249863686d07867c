import struct

import numpy as np
import pytest

from lomo import Model, SequenceSample


def random_instance(rng, n_max=12, m_choices=(1, 2, 3), d_max=8, t_max=2,
                    n_min=None, with_global=False):
    """Random (model, sample) pair for solver tests."""
    m = int(rng.choice(m_choices))
    n = int(rng.integers(n_min if n_min is not None else m, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    t = int(rng.integers(0, t_max + 1))
    from math import factorial

    gamma = 0.0
    global_template = None
    if with_global and rng.random() < 0.5:
        gamma = float(rng.uniform(0.1, 0.9))
        global_template = rng.standard_normal(d)
    model = Model(
        templates=rng.standard_normal((m, d)),
        ordering_costs=rng.standard_normal(factorial(m)),
        global_template=global_template,
        gamma_g=gamma,
        coverage=t,
    )
    sample = SequenceSample(f"r{rng.integers(1 << 30)}", 1, rng.standard_normal((n, d)))
    return model, sample


def write_bad_model_headers(directory):
    """Model containers whose headers lie: M far above MAX_EVENTS (no
    payload), d = 0, and a NaN gamma_g; the last two carry payloads sized
    to match their headers."""
    header = struct.Struct("<5sBBBIIIdQ")  # magic kind pooling has_global M d t gamma seed
    blobs = {
        "huge_m": header.pack(b"LOMO1", 3, 0, 0, 100000, 1, 0, 0.0, 0),
        "zero_d": header.pack(b"LOMO1", 3, 0, 0, 1, 0, 0, 0.0, 0) + bytes(8),
        "nan_gamma": header.pack(b"LOMO1", 3, 0, 1, 1, 2, 0, float("nan"), 0) + bytes(8 * 5),
    }
    paths = []
    for name, blob in blobs.items():
        path = directory / f"{name}.bin"
        path.write_bytes(blob)
        paths.append(path)
    return paths


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
