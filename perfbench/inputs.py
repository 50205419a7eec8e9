"""Workload inputs, written as the JSON files `chanstruct` reads.

Only numpy is used here, so the inputs do not change when the program's
own builders or random helpers change.

* The two D=16 walks are the models `chanstruct example` builds: the
  nearest-neighbour 8-cycle with the special-basis steps and the two-site
  Pauli walk with d=8 coins and alpha=0.5.  They take no seed.
* The small-channel corpus follows the recipe of the 52-channel corpus in
  the acceptance battery (`tests/test_acceptance.py`): random unitary
  mixtures for D=2..8, cyclic-shift walks flattened to Kraus form, and
  two-block sums, drawn from one `numpy.random.default_rng(seed)` stream.
  With the battery's seed, 20240817, it is the battery's corpus.
"""

from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_CORPUS_SEED = 20240817


def matrix_json(M) -> list:
    """Row-major rows of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row]
            for row in np.asarray(M, dtype=complex)]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR of a Ginibre matrix."""
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def walk_json(n_vertices: int, local_dim: int, transitions: dict,
              label: str) -> dict:
    """Walk input; transitions maps (to, from) to the operator L."""
    return {
        "vertices": list(range(n_vertices)),
        "local_dims": [local_dim] * n_vertices,
        "transitions": [{"from": j, "to": i, "matrix": matrix_json(L)}
                        for (i, j), L in sorted(transitions.items())],
        "label": label,
    }


def nn_cycle_special(n: int) -> dict:
    """Nearest-neighbour walk on Z_n: one step diagonal, the other
    off-diagonal in a common basis."""
    L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    transitions = {}
    for i in range(n):
        transitions[((i + 1) % n, i)] = L_plus
        transitions[((i - 1) % n, i)] = L_minus
    return walk_json(n, 2, transitions, f"nn-cycle-{n}")


def pauli_walk(d: int, alpha: float) -> dict:
    """Two-site walk: phase unitary Z to stay, shift X to move."""
    Z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    X = np.roll(np.eye(d), 1, axis=0)
    stay = np.sqrt(alpha) * Z
    move = np.sqrt(1 - alpha) * X
    transitions = {(0, 0): stay, (1, 1): stay, (0, 1): move, (1, 0): move}
    return walk_json(2, d, transitions, f"pauli-walk-{d}")


def walks(size: str) -> dict:
    """The benchmark walks ("full", D=16) or the warm-up walks ("small")."""
    if size == "full":
        return {"nn-cycle-8": nn_cycle_special(8),
                "pauli-walk-8": pauli_walk(8, 0.5)}
    return {"nn-cycle-4": nn_cycle_special(4),
            "pauli-walk-3": pauli_walk(3, 0.5)}


# ---------------------------------------------------------------------------
# small-channel corpus
# ---------------------------------------------------------------------------

def _unitary_mixture(D, k, rng):
    probs = rng.dirichlet(np.ones(k))
    return ([np.sqrt(p) * random_unitary(D, rng) for p in probs],
            f"mixture-{D}-{k}")


def _shift_walk(d, h, rng):
    """Cyclic shift on Z_d with a unitary per vertex, flattened; Kraus
    operators ordered by target vertex, as `to_channel` orders them."""
    us = [random_unitary(h, rng) for _ in range(d)]
    kraus = []
    for i in range(d):
        j = (i - 1) % d
        V = np.zeros((d * h, d * h), dtype=complex)
        V[i * h:(i + 1) * h, j * h:(j + 1) * h] = us[i]
        kraus.append(V)
    return kraus, f"cyclic-shift-{d}"


def _block_sum(d1, d2, k, rng):
    pa = rng.dirichlet(np.ones(k))
    pb = rng.dirichlet(np.ones(k))
    kraus = []
    for i in range(k):
        V = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        V[:d1, :d1] = np.sqrt(pa[i]) * random_unitary(d1, rng)
        V[d1:, d1:] = np.sqrt(pb[i]) * random_unitary(d2, rng)
        kraus.append(V)
    return kraus, f"blocksum-{d1}+{d2}"


def corpus_recipe():
    """(draw function, arguments) for each of the 52 corpus slots."""
    slots = []
    for D in range(2, 9):
        for k in (2, 3):
            slots += [(_unitary_mixture, (D, k))] * 2
    for d, h in ((2, 2), (3, 2), (4, 2), (2, 3)):
        slots += [(_shift_walk, (d, h))] * 3
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
        slots += [(_block_sum, (d1, d2, 2))] * 2
    return slots


def corpus(seed: int):
    """The 52 corpus channels as (kraus, label) pairs."""
    rng = np.random.default_rng(seed)
    return [draw(*args, rng) for draw, args in corpus_recipe()]


def corpus_json(seed: int) -> dict:
    """Kraus-form inputs keyed c00..c51."""
    return {f"c{n:02d}": {"dim": int(kraus[0].shape[0]),
                          "kraus": [matrix_json(V) for V in kraus],
                          "label": label}
            for n, (kraus, label) in enumerate(corpus(seed))}


def write_inputs(payloads: dict, directory: str) -> dict:
    """Write each payload as <name>.json; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, payload in payloads.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        paths[name] = path
    return paths
