"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of each qpbundle
module with timing wrappers for the length of one traced pass, then
puts the originals back.  Coarse calls (suites, check functions, the
public calls of ``connection``, preset loading, report rendering)
become spans kept in memory: name, layer, parent, start and duration.
Calls made millions of times (scalar operators, monomial products,
tensor bookkeeping) are aggregated instead, as a call count and total
time per name on the enclosing span.

Every wrapped call, span or aggregated, also pushes a frame, so that
its duration minus the time of the wrapped calls it makes is that
layer's self time.  Code that is not wrapped counts towards the nearest
wrapped caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns
_TREE = Path(__file__).resolve().parent.parent

# layer -> (module, {attribute path: short name}); spans are marked "*"
LAYERS = {
    "scalar": (
        "qpbundle.scalar",
        {
            "LaurentScalar.__init__": "new",
            "LaurentScalar.__mul__": "mul",
            "LaurentScalar.__rmul__": "rmul",
            "LaurentScalar.__add__": "add",
            "LaurentScalar.__sub__": "sub",
            "LaurentScalar.__neg__": "neg",
            "LaurentScalar.__pow__": "pow",
            "LaurentScalar.inverse": "inverse",
            "LaurentScalar.star": "star",
        },
    ),
    "skewalg": (
        "qpbundle.skewalg",
        {
            "AlgebraPresentation.normal_form": "normal_form",
            "AlgebraPresentation.reduce_terms": "reduce_terms",
            "AlgebraPresentation.mul": "mul",
            "AlgebraPresentation.mono_mul": "mono_mul",
            "AlgebraPresentation.sort_factor": "sort_factor",
            "AlgebraPresentation.element": "element",
            "AlgebraPresentation.star": "star",
            "AlgebraPresentation.monomials_up_to": "monomials_up_to",
            "AlgebraElement.__add__": "element_add",
            "AlgebraElement.__sub__": "element_sub",
            "AlgebraElement.__mul__": "element_mul",
            "AlgebraElement.__pow__": "element_pow",
            "AlgebraElement.scale": "element_scale",
            "AlgebraElement.__eq__": "element_eq",
            "render_element": "render_element",
            "tensor_presentation": "tensor_presentation",
            "check_local_confluence": "*check_local_confluence",
        },
    ),
    "comodule": (
        "qpbundle.comodule",
        {
            "TensorElement.__init__": "tensor_new",
            "TensorElement.__add__": "tensor_add",
            "TensorElement.scale": "tensor_scale",
            "TensorElement.__eq__": "tensor_eq",
            "tensor_of": "tensor_of",
            "tensor_apply": "tensor_apply",
            "tensor_mul": "tensor_mul",
            "tensor_concat": "tensor_concat",
            "right_coact": "right_coact",
            "left_coact": "left_coact",
            "render_tensor": "render_tensor",
            "check_bicomodule": "*check_bicomodule",
        },
    ),
    "cotensor": (
        "qpbundle.cotensor",
        {
            "CotensorAlgebra.__init__": "cotensor_new",
            "CotensorAlgebra.membership": "membership",
            "CotensorAlgebra.pair": "pair",
            "CotensorAlgebra.generators_up_to": "generators_up_to",
            "CotensorAlgebra.coinvariant_monomials": "coinvariant_monomials",
            "entwine": "entwine",
            "entwine_inverse": "entwine_inverse",
            "entwine_at": "entwine_at",
            "multiply_adjacent": "multiply_adjacent",
            "check_entwining_axioms": "*check_entwining_axioms",
            "check_entwined_module": "*check_entwined_module",
            "coinvariants_basis": "*coinvariants_basis",
        },
    ),
    "connection": (
        "qpbundle.connection",
        {
            "ConnectionForm.__call__": "form",
            "ConnectionForm.closed": "closed",
            "matsumoto_connection": "*matsumoto_connection",
            "lifted_canonical_map": "*lifted_canonical_map",
            "verify_strong_connection": "*verify_strong_connection",
            "check_h_balance": "*check_h_balance",
            "balance_total_holds": "*balance_total_holds",
            "balance_split_holds": "*balance_split_holds",
            "compose_connection": "*compose_connection",
            "composed_closed_form": "*composed_closed_form",
            "composed_generator_form": "*composed_generator_form",
            "mixed_cotensor_generators": "*mixed_cotensor_generators",
            "verify_translation_identities": "*verify_translation_identities",
            "inverse_canonical_representative": "*inverse_canonical_representative",
        },
    ),
    "cli.parse": ("qpbundle.cli.parser", {"parse_expression": "parse_expression"}),
    "cli.load": ("qpbundle.cli.parser", {"load_preset": "*load_preset"}),
    "report": (
        "qpbundle.report",
        {"Report.to_json": "*render_json", "Report.to_text": "*render_text"},
    ),
}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "dur", "self_ns", "calls")

    def __init__(self, id_, parent, name, layer, start):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.dur = 0
        self.self_ns = 0
        self.calls: dict[str, list] = {}

    def as_dict(self, t0: int) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start_ms": (self.start - t0) / 1e6,
            "dur_ms": self.dur / 1e6,
            "self_ms": self.self_ns / 1e6,
            "calls": {k: [n, ns / 1e6] for k, (n, ns) in sorted(self.calls.items())},
        }


class Tracer:
    """Wraps the layers while open; collects spans, counts and self times."""

    def __init__(self, root: str):
        self.spans: list[Span] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.expansions = 0  # mono_mul calls made directly by reduce_terms
        self.nf_terms = 0  # terms returned by reduce_terms
        self.unwrapped: list[str] = []
        self._frames: list[list] = [[0, ""]]  # [child ns, name] per open call
        self._open: list[Span] = []
        self._patches: list[tuple] = []
        self._t0 = _now()
        self._root = self.span(root, "bench")

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, layer, _now())
        self.spans.append(sp)
        self._open.append(sp)
        frame = [0, name]
        self._frames.append(frame)
        try:
            yield sp
        finally:
            sp.dur = _now() - sp.start
            self._frames.pop()
            self._open.pop()
            sp.self_ns = sp.dur - frame[0]
            self.self_ns[layer] += sp.self_ns
            self._frames[-1][0] += sp.dur

    def _aggregated(self, layer: str, name: str, fn):
        frames, open_spans, self_ns = self._frames, self._open, self.self_ns

        def wrapper(*args, **kwargs):
            frame = [0, name]
            frames.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                frames.pop()
                self_ns[layer] += dur - frame[0]
                frames[-1][0] += dur
                calls = open_spans[-1].calls
                entry = calls.get(name)
                if entry is None:
                    calls[name] = [1, dur]
                else:
                    entry[0] += 1
                    entry[1] += dur

        return wrapper

    def _spanned(self, layer: str, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    def _counting(self, name: str, fn):
        """Hooks that feed the derived counters, run inside the timing."""
        if name == "skewalg.reduce_terms":

            def reduce_terms(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.nf_terms += len(out)
                return out

            return reduce_terms
        if name == "skewalg.mono_mul":
            frames = self._frames

            def mono_mul(*args, **kwargs):
                if frames[-2][1] == "skewalg.reduce_terms":
                    self.expansions += 1
                return fn(*args, **kwargs)

            return mono_mul
        return fn

    def _rule_counting_init(self, init):
        """ConnectionForm.__init__ that times and counts the rule it is
        handed, as ``connection.rule``."""

        def wrapper(form, spec, rule, *args, **kwargs):
            rule = self._aggregated("connection", "connection.rule", rule)
            return init(form, spec, rule, *args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        # the package's modules and the benchmark's own, which import
        # functions by name
        modules = [
            m
            for m in list(sys.modules.values())
            if _TREE in Path(getattr(m, "__file__", None) or "/").resolve().parents
        ]
        for layer, (modname, table) in LAYERS.items():
            module = importlib.import_module(modname)
            for path, short in table.items():
                span = short.startswith("*")
                name = "%s.%s" % (layer, short.lstrip("*"))
                owner, attr = module, path
                if "." in path:
                    cls, attr = path.split(".")
                    owner = getattr(module, cls, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    self.unwrapped.append("%s.%s" % (modname, path))
                    continue
                fn = self._counting(name, original)
                make = self._spanned if span else self._aggregated
                wrapped = make(layer, name, fn)
                if owner is module:
                    # rebind every module-level alias of the function
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)
                else:
                    self._patch(owner, attr, wrapped)
        form = importlib.import_module("qpbundle.connection").__dict__.get("ConnectionForm")
        if form is not None:
            self._patch(form, "__init__", self._rule_counting_init(form.__init__))
        else:
            self.unwrapped.append("qpbundle.connection.ConnectionForm.__init__")
        self._root.__enter__()
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        self._root.__exit__(None, None, None)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive ns], over spans and aggregates."""
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for sp in self.spans:
            out[sp.name][0] += 1
            out[sp.name][1] += sp.dur
            for name, (n, ns) in sp.calls.items():
                out[name][0] += n
                out[name][1] += ns
        return out

    def dump(self) -> dict:
        return {
            "layers_self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
            "unwrapped": self.unwrapped,
            "spans": [sp.as_dict(self._t0) for sp in self.spans],
        }

