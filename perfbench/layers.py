"""The layer table: what the traced run wraps, the per-layer metrics it
reports, and which end-to-end metric each layer metric should move.

The layers are the modules of `a2webs`.  A later change that claims a
gain cites its metrics by these names and checks its prediction against
the ``moves`` column.  BENCHMARK.json lists the same metric names; run.py
refuses to run when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

VERIFY, NETWORK, CERTIFY = "verify", "network", "certify"
WORKLOADS = (VERIFY, NETWORK, CERTIFY)
ALL = frozenset(WORKLOADS)

SUITES = ("relations", "confluence", "dimensions", "kappa", "ci", "minors", "bridge", "networks", "tnn")


def _count_labelings(counters, args, result) -> None:
    counters["labelings.enumerate_labelings.found"] += len(result)
    if result:
        counters["labelings.enumerate_labelings.hits"] += 1


def _count_rule(counters, args, result) -> None:
    counters[f"spider.apply_rule.{args[1][0]}.calls"] += 1


@dataclass(frozen=True)
class Wrap:
    module: str  # a2webs submodule
    attr: str  # function name, or Class.method
    runs_on: frozenset  # workloads on which the traced run must see calls
    spans: bool = False  # keep every call as a span; hot names are only aggregated
    group: Optional[str] = None  # also add self time to <group>.self_s
    hook: Optional[Callable] = None  # hook(counters, args, result) after each call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_VN = frozenset((VERIFY, NETWORK))
_VC = frozenset((VERIFY, CERTIFY))
_V = frozenset((VERIFY,))
_C = frozenset((CERTIFY,))

WRAPS = (
    Wrap("exactmath", "LaurentPoly.__mul__", ALL, group="exactmath.LaurentPoly"),
    Wrap("exactmath", "LaurentPoly.__add__", ALL, group="exactmath.LaurentPoly"),
    Wrap("exactmath", "eval_q1", ALL),
    Wrap("webcore", "Web.from_slice", ALL),
    Wrap("webcore", "Web.from_map", ALL),
    Wrap("webcore", "to_map", ALL),
    Wrap("webcore", "canonical_form", ALL),
    Wrap("webcore", "render", ALL),
    Wrap("spider", "reduce_web", ALL),
    Wrap("spider", "apply_rule", ALL, hook=_count_rule),
    Wrap("spider", "WebCombo.__mul__", ALL),
    Wrap("spider", "WebCombo.__add__", ALL),
    Wrap("spider", "hecke_image", ALL),
    Wrap("labelings", "enumerate_labelings", _VC, hook=_count_labelings),
    Wrap("labelings", "boundary_profile", _V),
    Wrap("labelings", "coefficient_via_labelings", _V),
    Wrap("perms", "count_avoiding", _V),
    Wrap("perms", "kostka_three_column", _V),
    Wrap("perms", "all_perms", ALL),
    Wrap("immanants", "theta_image", ALL, spans=True),
    Wrap("immanants", "irreducible_webs", ALL),
    Wrap("immanants", "immanant_table", _VN, spans=True),
    Wrap("immanants", "evaluate_immanant", _VN),
    Wrap("immanants", "ExactMatrix.det", _VN),
    Wrap("minors", "rank_check", _C, spans=True),
    Wrap("minors", "decompose_triple", _VC, spans=True),
    Wrap("minors", "minor", _V),
    Wrap("minors", "check_triple", _V),
    Wrap("tlbridge", "tl_immanant", _V),
    Wrap("tlbridge", "bridge_expansion", _V, spans=True),
    Wrap("networks", "covering_families", _VN),
    Wrap("networks", "covering_markings", _VN, spans=True),
    Wrap("networks", "uncross", _VN, spans=True),
    Wrap("networks", "path_matrix", _VN, spans=True),
    Wrap("networks", "network_immanants", _VN, spans=True),
    Wrap("networks", "lindstrom_check", _VN, spans=True),
    Wrap("cli", "main", _V, spans=True),
    Wrap("cli", "run_suite", _V, spans=True),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move, and where it should stay flat


_ = Metric
METRICS = (
    _("exactmath.LaurentPoly.__mul__.calls", "count", "lower", "verify.wall_s; flat on certify"),
    _("exactmath.LaurentPoly.__add__.calls", "count", "lower", "verify.wall_s; flat on certify"),
    _("exactmath.LaurentPoly.self_s", "s", "lower", "verify.wall_s; flat on certify"),
    _("exactmath.eval_q1.calls", "count", "lower", "verify.wall_s; flat on certify"),
    _("webcore.Web.from_slice.calls", "count", "lower", "verify.wall_s"),
    _("webcore.Web.from_map.calls", "count", "lower", "verify.wall_s"),
    _("webcore.to_map.calls", "count", "lower", "verify.wall_s"),
    _("webcore.to_map.self_s", "s", "lower", "verify.wall_s"),
    _("webcore.canonical_form.calls", "count", "lower", "verify.wall_s"),
    _("webcore.canonical_form.self_s", "s", "lower", "verify.wall_s"),
    _("webcore.render.calls", "count", "lower", "network.op_p90_s (render via uncross)"),
    _("webcore.render.self_s", "s", "lower", "network.op_p90_s (render via uncross)"),
    _("spider.reduce_web.calls", "count", "lower", "verify.wall_s, verify.peak_rss_mib; network.wall_s"),
    _("spider.apply_rule.calls", "count", "lower", "verify.wall_s, verify.peak_rss_mib; network.wall_s"),
    _("spider.apply_rule.loop.calls", "count", "lower", "verify.wall_s; network.wall_s"),
    _("spider.apply_rule.bigon.calls", "count", "lower", "verify.wall_s; network.wall_s"),
    _("spider.apply_rule.square.calls", "count", "lower", "verify.wall_s; network.wall_s"),
    _("spider.WebCombo.__mul__.calls", "count", "lower", "verify.wall_s, verify.peak_rss_mib"),
    _("spider.WebCombo.__mul__.self_s", "s", "lower", "verify.wall_s"),
    _("spider.WebCombo.__add__.calls", "count", "lower", "verify.wall_s"),
    _("spider.hecke_image.calls", "count", "lower", "verify.wall_s; network.wall_s"),
    _("spider.rewrites_per_reduce", "ratio", "lower",
      "verify.wall_s; network.wall_s (bases: spider.apply_rule.calls, spider.reduce_web.calls)"),
    _("labelings.enumerate_labelings.calls", "count", "lower", "certify.wall_s; small on verify"),
    _("labelings.enumerate_labelings.self_s", "s", "lower", "certify.wall_s; small on verify"),
    _("labelings.enumerate_labelings.found", "count", "lower", "certify.wall_s; small on verify"),
    _("labelings.enumerate_labelings.hit_frac", "ratio", "higher",
      "certify.wall_s (base: labelings.enumerate_labelings.calls)"),
    _("labelings.boundary_profile.calls", "count", "lower", "verify.wall_s (small)"),
    _("labelings.boundary_profile.self_s", "s", "lower", "verify.wall_s (small)"),
    _("labelings.coefficient_via_labelings.calls", "count", "lower", "verify.wall_s (small)"),
    _("perms.count_avoiding.self_s", "s", "lower", "verify.wall_s (small)"),
    _("perms.kostka_three_column.self_s", "s", "lower", "verify.wall_s (small)"),
    _("perms.all_perms.calls", "count", "lower", "verify.wall_s (small)"),
    _("immanants.theta_image.calls", "count", "lower", "verify.wall_s (tnn, dimensions); network.wall_s"),
    _("immanants.theta_image.self_s", "s", "lower", "verify.wall_s (tnn, dimensions); network.wall_s"),
    _("immanants.irreducible_webs.incl_s", "s", "lower", "verify.wall_s (dimensions); network.wall_s"),
    _("immanants.immanant_table.incl_s", "s", "lower", "verify.wall_s (tnn); network.wall_s"),
    _("immanants.evaluate_immanant.calls", "count", "lower", "verify.wall_s (tnn); network.wall_s"),
    _("immanants.evaluate_immanant.self_s", "s", "lower", "verify.wall_s (tnn); network.wall_s"),
    _("immanants.ExactMatrix.det.calls", "count", "lower", "verify.wall_s; network.wall_s"),
    _("immanants.ExactMatrix.det.self_s", "s", "lower", "verify.wall_s; network.wall_s"),
    _("minors.rank_check.self_s", "s", "lower", "certify.wall_s (the inline elimination); flat elsewhere"),
    _("minors.decompose_triple.calls", "count", "lower", "certify.wall_s; flat elsewhere"),
    _("minors.decompose_triple.self_s", "s", "lower", "certify.wall_s; flat elsewhere"),
    _("minors.minor.calls", "count", "lower", "verify.wall_s (minors, bridge); flat elsewhere"),
    _("minors.check_triple.calls", "count", "lower", "verify.wall_s (minors); flat elsewhere"),
    _("tlbridge.tl_immanant.calls", "count", "lower", "verify.wall_s (small; the control layer)"),
    _("tlbridge.tl_immanant.self_s", "s", "lower", "verify.wall_s (small; the control layer)"),
    _("tlbridge.bridge_expansion.incl_s", "s", "lower", "verify.wall_s (small; the control layer)"),
    _("networks.covering_families.yielded", "count", "lower",
      "network.wall_s, network.op_p90_s; flat on certify"),
    _("networks.covering_markings.self_s", "s", "lower", "network.wall_s, network.op_p90_s; flat on certify"),
    _("networks.uncross.calls", "count", "lower", "network.wall_s, network.op_p90_s; flat on certify"),
    _("networks.uncross.self_s", "s", "lower", "network.wall_s, network.op_p90_s; flat on certify"),
    _("networks.path_matrix.self_s", "s", "lower", "network.wall_s; flat on certify"),
    _("networks.network_immanants.self_s", "s", "lower", "network.wall_s, network.op_p90_s; flat on certify"),
    _("networks.lindstrom_check.self_s", "s", "lower", "network.wall_s; flat on certify"),
    _("cli.main.self_s", "s", "lower", "verify.wall_s only (argument parsing and JSON output)"),
    _("cli.run_suite.incl_s", "s", "lower", "verify.wall_s only"),
) + tuple(
    _(f"cli.suite.{s}.s", "s", "lower", "verify.wall_s only (the report's seconds field)") for s in SUITES
) + (
    _("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s of the same inputs"),
)


def layer_metrics(counters: dict, suite_seconds: dict, overhead_s: float) -> dict:
    """Every per-layer metric from a traced child's counters; a name
    that did not run on this workload reads 0."""
    c = counters.get
    derived = {
        "spider.rewrites_per_reduce": _ratio(c("spider.apply_rule.calls", 0), c("spider.reduce_web.calls", 0)),
        "labelings.enumerate_labelings.hit_frac": _ratio(
            c("labelings.enumerate_labelings.hits", 0), c("labelings.enumerate_labelings.calls", 0)
        ),
        "trace.overhead_s": overhead_s,
    }
    derived.update({f"cli.suite.{s}.s": suite_seconds.get(s, 0.0) for s in SUITES})
    out = {}
    for m in METRICS:
        value = derived[m.name] if m.name in derived else c(m.name, 0)
        if m.unit == "count":
            value = int(value)
        out[m.name] = {"value": value, "unit": m.unit}
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
