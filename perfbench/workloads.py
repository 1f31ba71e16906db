"""The four benchmark workloads: config files made from a seed, and jobs.

A job is a fixed list of CLI calls on fixed code sizes.  A run's median and
throughput must not depend on how many jobs fit into it, so every job of a
workload is the same job, or (recover-9q) the jobs cycle in an order that
keeps any stretch of them equally mixed.  The seed picks only the noise
weights, the tomography seed and the oneway angles; none of them changes how
much work a job does.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("paper", "recover-9q", "encode-6q", "cap-12q")

SHOTS = 10000
PAPER_INPUTS = ("V", "PLUS", "R")
PAPER_SETTINGS = {"V": 9, "PLUS": 5, "R": 9}   # the paper's budget at (2, 2)
PHI5_SETTINGS = 15
ONEWAY_CASES = ("photon2", "photon4")
CAP_BRANCH = "0" * 10


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    v: float          # white-noise weight
    d: float          # pair dephasing weight (cluster-fidelity only)
    tomo_seed: int    # master seed of the sampled tomography
    alphas: tuple[float, ...]

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(v=round(rng.uniform(0.80, 0.95), 6),
                   d=round(rng.uniform(0.02, 0.10), 6),
                   tomo_seed=rng.randrange(1, 2 ** 31),
                   alphas=tuple(round(rng.uniform(-math.pi, math.pi), 6)
                                for _ in range(6)))


Check = Callable[[str], tuple[list[str], Counter]]


@dataclass(frozen=True)
class Call:
    """One in-process CLI call and the check of its ``--out`` file."""

    command: str
    config: Path
    out: Path
    check: Check

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out)]


Job = tuple[Call, ...]


def _write(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def _paper(work: Path, x: Inputs) -> list[Job]:
    common = dict(inputs=",".join(PAPER_INPUTS), code_n=2, code_m=2,
                  noise_v=x.v, shots=SHOTS, seed=x.tomo_seed)
    encode = Call("encode", _write(work / "encode.cfg", **common), work / "encode.csv",
                  lambda t: checks.check_encode(t, 4, PAPER_INPUTS, x.v, PAPER_SETTINGS))
    recover = Call("recover", _write(work / "recover.cfg", **common, lost="all"),
                   work / "recover.csv",
                   lambda t: checks.check_recover(t, 2, 2, PAPER_INPUTS, tuple(range(4)),
                                                  x.v, SHOTS))
    cluster = Call("cluster-fidelity",
                   _write(work / "cluster.cfg", noise_v=x.v, noise_d=x.d,
                          dephase_pairs="auto", shots=SHOTS, seed=x.tomo_seed),
                   work / "cluster.csv",
                   lambda t: checks.check_cluster(t, x.v, x.d, PHI5_SETTINGS))
    oneway = Call("oneway",
                  _write(work / "oneway.cfg", noise_v=x.v, lost="all", shots=SHOTS,
                         seed=x.tomo_seed, alphas=",".join(repr(a) for a in x.alphas)),
                  work / "oneway.csv",
                  lambda t: checks.check_oneway(t, ONEWAY_CASES, x.alphas, x.v))
    return [(encode, recover, cluster, oneway)]


# Loss positions taking one block after the other.  Jobs whose loss is in
# block 0 run about 1.4x faster than the others (the measured qubits sit at
# other tensor axes), so any run of consecutive jobs keeps the same mix of
# blocks, and a run's median does not depend on how many jobs fit into it.
RECOVER_9Q_LOSSES = (0, 3, 6, 1, 4, 7, 2, 5, 8)


def _recover_9q(work: Path, x: Inputs) -> list[Job]:
    jobs = []
    for name in PAPER_INPUTS:
        for lost in RECOVER_9Q_LOSSES:
            cfg = _write(work / f"recover-{name}-{lost}.cfg", inputs=name, code_n=3,
                         code_m=3, noise_v=x.v, lost=lost, shots=SHOTS, seed=x.tomo_seed)
            check = (lambda t, name=name, lost=lost:
                     checks.check_recover(t, 3, 3, (name,), (lost,), x.v, SHOTS))
            jobs.append((Call("recover", cfg, work / "recover.csv", check),))
    return jobs


def _encode_6q(work: Path, x: Inputs) -> list[Job]:
    inputs = ("V", "PLUS", "R", "S")
    cfg = _write(work / "encode.cfg", inputs=",".join(inputs), code_n=2, code_m=3,
                 noise_v=x.v, shots=SHOTS, seed=x.tomo_seed)
    return [(Call("encode", cfg, work / "encode.csv",
                  lambda t: checks.check_encode(t, 6, inputs, x.v)),)]


def _cap_12q(work: Path, x: Inputs) -> list[Job]:
    cfg = _write(work / "recover.cfg", inputs="R", code_n=2, code_m=6, noise_v=x.v,
                 lost=0, force_branch=CAP_BRANCH, shots=SHOTS, seed=x.tomo_seed)
    return [(Call("recover", cfg, work / "recover.csv",
                  lambda t: checks.check_recover(t, 2, 6, ("R",), (0,), x.v, SHOTS,
                                                 forced=CAP_BRANCH)),)]


_BUILDERS = {"paper": _paper, "recover-9q": _recover_9q,
             "encode-6q": _encode_6q, "cap-12q": _cap_12q}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's configs for ``seed`` into ``work``; return its job cycle."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](work, Inputs.from_seed(seed))
