"""Spans and call counts around losskit's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
losskit module (and module-level dict, such as ``cli.RUNNERS``) that holds
it, because the modules import ``qsim`` functions by name.  Each wrapper
keeps a span ``(job, name, start, end, parent)`` in memory and counts its
calls; ``uninstall`` puts the originals back.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer name, module, attribute); "Class.method" attributes patch the class.
LAYERS = (
    ("qsim.measure", "losskit.qsim", "measure"),
    ("qsim.state_check", "losskit.qsim", "DensityMatrix.__post_init__"),
    ("qsim.density", "losskit.qsim", "StateVector.density"),
    ("qsim.apply_channel", "losskit.qsim", "apply_channel"),
    ("qsim.partial_trace", "losskit.qsim", "partial_trace"),
    ("qsim.apply_gate", "losskit.qsim", "apply_gate"),
    ("qsim.fidelity_pure", "losskit.qsim", "fidelity_pure"),
    ("qsim.expectation", "losskit.qsim", "expectation"),
    ("codes.encode", "losskit.codes", "encode"),
    ("recovery.execute_recovery", "losskit.recovery", "execute_recovery"),
    ("recovery.erase", "losskit.recovery", "erase"),
    ("recovery.plan_recovery", "losskit.recovery", "plan_recovery"),
    ("cluster.loss_tolerant_rotation", "losskit.cluster", "loss_tolerant_rotation"),
    ("cluster.run_pattern", "losskit.cluster", "run_pattern"),
    ("tomography.decompose_projector", "losskit.tomography", "decompose_projector"),
    ("tomography.group_settings", "losskit.tomography", "group_settings"),
    ("tomography.simulate_counts", "losskit.tomography", "simulate_counts"),
    ("tomography.estimate_fidelity", "losskit.tomography", "estimate_fidelity"),
    ("cli.config", "losskit.cli", "parse_config"),
    ("cli.config", "losskit.cli", "validate_config"),
    ("cli.runner", "losskit.cli", "run_encode"),
    ("cli.runner", "losskit.cli", "run_recover"),
    ("cli.runner", "losskit.cli", "run_cluster_fidelity"),
    ("cli.runner", "losskit.cli", "run_oneway"),
    ("cli.render_output", "losskit.cli", "render_output"),
)


class Tracer:
    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every span and count (used after the warm-up job)."""
        self.spans: list[tuple | None] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [span index, time covered by children]
        self.job = -1
        self.command = ""

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        self.calls[name] += 1
        if self.command:
            self.calls[f"{name}@{self.command}"] += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            if "zero probability" in str(exc):
                self.calls[f"{name}.zero_prob"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[frame[0]] = (self.job, name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "losskit" or key.startswith("losskit.")]
        for name, module, attr in LAYERS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for job, name, start, end, parent in self.spans:
                fh.write(json.dumps({"job": job, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
