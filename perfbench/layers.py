"""Layer trace from outside the program.

Wraps public superchan functions by module attribute: in the defining module,
in every superchan module that imported the name, and in module-level dicts
that hold it (such as the CLI's parser table).  Dataclass validators and
methods are wrapped on their class.  A name that no longer exists is
reported as absent and skipped, so refactors do not break the trace.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it; the spans of one operation
share its index.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# layer -> wrapped names, "module.attribute" or "module.Class.method"
LAYERS = {
    "linalg.eig": ["linalg.hermitian_eigenvalues"],
    "linalg.operator": ["linalg.MultipartiteOperator.__post_init__"],
    "linalg.kron": ["linalg.kron"],
    "linalg.partial_trace": ["linalg.partial_trace"],
    "linalg.permute": ["linalg.permute_subsystems"],
    "du.build_choi": ["du.build_choi"],
    "du.from_choi": ["du.from_choi"],
    "du.cp_check": ["du.du_cp_check"],
    "du.tp_check": ["du.du_tp_check"],
    "du.compose": ["du.du_compose"],
    "du.block_action": ["du.du_block_action"],
    "du.params": ["du.DUSuperParams.__post_init__"],
    "do.build_choi": ["do.do_build_choi"],
    "do.validate": ["do.do_validate"],
    "do.params": ["do.DOSuperParams.__post_init__"],
    "superchannels.validate": ["superchannels.validate_superchannel"],
    "superchannels.tp_preserving": ["superchannels.tp_preserving_check"],
    "superchannels.compose": ["superchannels.compose_superchannels"],
    "superchannels.apply": ["superchannels.apply_to_channel", "superchannels.representing_apply"],
    "covariance.check": ["covariance.superchannel_covariance_check"],
    "covariance.draw": ["covariance.GroupSampler.draw"],
    "dephasing.validate": ["dephasing.dephasing_validate"],
    "dephasing.to_super_choi": ["dephasing.to_super_choi"],
    "pauli.super_choi": ["pauli.pauli_super_choi"],
    "pauli.du_check": ["pauli.pauli_du_check"],
    "pauli.bistochastic": ["pauli.pauli_induced_bistochastic"],
    "channels.validate": ["channels.validate_channel"],
    "channels.classical_extract": ["channels.classical_channel_extract"],
    "jsonio.load": ["jsonio.load_json"],
    "jsonio.parse": [
        "jsonio.detect_kind", "jsonio.channel_from_json", "jsonio.superchannel_from_json",
        "jsonio.du_params_from_json", "jsonio.do_params_from_json",
        "jsonio.dephasing_from_json", "jsonio.pauli_from_json", "linalg.matrix_from_json",
    ],
    "jsonio.serialize": [
        "jsonio.channel_to_json", "jsonio.superchannel_to_json", "jsonio.du_params_to_json",
        "jsonio.do_params_to_json", "jsonio.dephasing_to_json", "jsonio.pauli_to_json",
        "linalg.matrix_to_json",
    ],
    "jsonio.dump": ["jsonio.dump_json"],
    "cli": ["cli.main"],
    "cli.build_parser": ["cli.build_parser"],
}

# counted per-layer metrics -> unit
COUNTS = {
    "linalg.eig.calls": "count", "linalg.eig.max_side": "count", "linalg.eig.work": "count",
    "linalg.operator.calls": "count", "linalg.operator.bytes": "B",
    "linalg.operator.max_bytes": "B", "du.build_choi.calls": "count",
    "covariance.samples": "count", "jsonio.load.bytes": "B", "jsonio.dump.bytes": "B",
}
MAXIMA = {"linalg.eig.max_side", "linalg.operator.max_bytes"}


def _count_eig(c, args, kwargs, out):
    side = len(out)
    c["linalg.eig.calls"] += 1
    c["linalg.eig.work"] += side**3
    c["linalg.eig.max_side"] = max(c["linalg.eig.max_side"], side)


def _count_operator(c, args, kwargs, out):
    size = 16 * args[0].mat.shape[0] ** 2
    c["linalg.operator.calls"] += 1
    c["linalg.operator.bytes"] += size
    c["linalg.operator.max_bytes"] = max(c["linalg.operator.max_bytes"], size)


def _count_build_choi(c, args, kwargs, out):
    c["du.build_choi.calls"] += 1


def _count_load(c, args, kwargs, out):
    c["jsonio.load.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_dump(c, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None:
        c["jsonio.dump.bytes"] += len(out.encode()) + 1


def _samples_counter(fn):
    signature = inspect.signature(fn)
    if "n" not in signature.parameters:
        return None

    def count(c, args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        c["covariance.samples"] += bound.arguments["n"]

    return count


COUNTERS = {
    "linalg.hermitian_eigenvalues": _count_eig,
    "linalg.MultipartiteOperator.__post_init__": _count_operator,
    "du.build_choi": _count_build_choi,
    "jsonio.load_json": _count_load,
    "jsonio.dump_json": _count_dump,
}


class Tracer:
    """Collects spans of wrapped calls: (layer, name, start, end, self, op)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.absent = []
        self.op = -1
        self._stack = []  # child time accumulated by each open span

    def _wrap(self, layer, name, fn, counter):
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                spans.append((layer, name, t0, t1, t1 - t0 - child, self.op))
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "superchan" or key.startswith("superchan."))]
        for layer, names in LAYERS.items():
            for name in names:
                module_name, _, attr = name.partition(".")
                module = sys.modules.get(f"superchan.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                counter = COUNTERS.get(name)
                if name == "covariance.superchannel_covariance_check":
                    counter = _samples_counter(fn)
                wrapper = self._wrap(layer, name, fn, counter)
                if owner_name:
                    setattr(owner, method, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in value.items():
                                if v is fn:
                                    value[k] = wrapper

    def summary(self, rounds: int) -> dict:
        """Per-round self time per layer, counts per round, and per-call
        inclusive times of each wrapped name."""
        self_s = defaultdict(float)
        inclusive = defaultdict(list)
        for layer, name, t0, t1, own, _ in self.spans:
            self_s[layer] += own
            inclusive[name].append(t1 - t0)
        values = {f"{layer}.self_s": self_s[layer] / rounds for layer in LAYERS}
        for key in COUNTS:
            v = self.counts[key]
            values[key] = v if key in MAXIMA else v / rounds
        return {
            "values": values,
            "self_total": sum(self_s.values()),
            "inclusive": dict(inclusive),
            "absent": self.absent,
        }

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("op,layer,name,start,end,self\n")
            for layer, name, t0, t1, own, op in self.spans:
                f.write(f"{op},{layer},{name},{t0:.9f},{t1:.9f},{own:.9f}\n")
