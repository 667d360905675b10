"""End-to-end and per-layer metrics, with the names and units that
``BENCHMARK.json`` declares.

End-to-end metrics come from an untraced run: set-up time, the time to
finish the workload's job list, job latency percentiles and peak memory.
A job's latency is the median over the run's passes of its latency scaled
to a reference machine speed (see ``GAUGE_REF_S``). Per-layer metrics come
from the spans of a traced run.
"""

from __future__ import annotations

import statistics

import numpy as np

from .execute import MALFORMED_EXITS
from .spans import duration
from .workloads import CLOSED_REACH

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB"}

ENUM_POLICIES = ("zero-turn", "one-turn", "two-turn-directed")

PER_LAYER_UNITS = {
    "sampler.us_per_call": "us",
    "sampler.share": "ratio",
    "sampler.lines_per_trial": "count",
    "sampler.points_per_trial": "count",
    **{f"oracle.enum_us_per_call.{p}": "us" for p in ENUM_POLICIES},
    "oracle.kturn_us_per_call": "us",
    "oracle.pairs_per_trial": "count-computed",
    "oracle.censored_frac": "ratio",
    "experiments.us_per_trial": "us",
    "experiments.driver_overhead_frac": "ratio",
    "experiments.w2_speedup": "ratio",
    "analytic.thm2_ms_per_point": "ms",
    "analytic.thm3_ms_per_point": "ms",
    "analytic.closed_us_per_curve": "us",
    "applications.reach_ms.one-turn-intersection": "ms",
    "applications.reach_us.closed": "us",
    "applications.success_us_per_call": "us",
    "cli.export_ms": "ms",
    "cli.compare_ms": "ms",
    "cli.malformed_exit_ok_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# The speed gauge's time (see client.py) on the 2-core Xeon the benchmark
# was defined on, when nothing else ran there. Times are reported at this
# speed: each is multiplied by GAUGE_REF_S over the gauge time measured
# right before it, which takes out most of the slow stretches of a shared
# machine (under contention the jobs slow somewhat more than the gauge).
GAUGE_REF_S = 1.1e-3
SETUP_GAUGES = 5  # gauge times, after set-up, that scale the set-up time


def job_times(passes) -> list[float]:
    """Per job of the list: its latency in each pass, scaled to the
    reference speed by the gauge time right before it, and the median of
    those over the passes."""
    scaled = [[lat * GAUGE_REF_S / g for lat, g in zip(p["latency"], p["gauge"])]
              for p in passes]
    return [statistics.median(col) for col in zip(*scaled)]


def setup_times(passes) -> list[float]:
    """Each client's set-up time, scaled by the median of its first gauge
    times."""
    return [p["setup"] * GAUGE_REF_S / statistics.median(p["gauge"][:SETUP_GAUGES])
            for p in passes]


def unscaled_wall(passes) -> float:
    """Sum over the jobs of their median latency, as measured."""
    return sum(statistics.median(col) for col in zip(*(p["latency"] for p in passes)))


def speed_factor(passes) -> float:
    """How much slower than the reference the machine ran: the median gauge
    time over GAUGE_REF_S."""
    return statistics.median(g for p in passes for g in p["gauge"]) / GAUGE_REF_S


def end_to_end(passes, times) -> dict:
    """``times`` holds one scaled latency per job of the list (see
    ``job_times``); peak memory is the largest client's."""
    values = {
        "setup_s": statistics.median(setup_times(passes)),
        "wall_s": sum(times),
        "job_p50_ms": 1e3 * float(np.percentile(times, 50)),
        "job_p90_ms": 1e3 * float(np.percentile(times, 90)),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


PROBE_PREFIX = "p."  # request ids of the probe jobs (see workloads.probe_jobs)


def _select(spans, name, keep=None, **attrs):
    """Spans of one call, with matching attributes and passing ``keep``.
    The workload's own spans are preferred; the probe's count only for
    calls the workload does not make."""
    found = [s for s in spans if s["name"] == name
             and all(s["attrs"].get(k) == v for k, v in attrs.items())
             and (keep is None or keep(s))]
    own = [s for s in found if not s["request"].startswith(PROBE_PREFIX)]
    return own or found


def _total(spans) -> float:
    return sum(duration(s) for s in spans)


def _mean_s(spans, what: str) -> float:
    if not spans:
        raise ValueError(f"no traced call for {what}")
    return _total(spans) / len(spans)


def _mean_attr(spans, key: str) -> float:
    return sum(s["attrs"][key] for s in spans) / len(spans)


def _ratio(num: float, den: float, what: str) -> float:
    if den <= 0:
        raise ValueError(f"no traced work for {what}")
    return num / den


def per_layer(spans, overhead_frac: float) -> dict:
    """Per-layer metrics from a traced run's spans."""
    def policy(*names):
        return lambda s: s["attrs"]["policy"] in names

    sampler = _select(spans, "sampler.sample_palm")
    oracle = _select(spans, "oracle.shortest_path")
    decomp = _select(spans, "experiments.run_mc", role="decomposition")
    jobs_mc = _select(spans, "experiments.run_mc", role="job")
    w1 = _select(spans, "experiments.run_mc", role="speedup-w1")
    w2 = _select(spans, "experiments.run_mc", role="speedup-w2")
    thm2 = _select(spans, "analytic.cdf_one_turn_intersection")
    thm3 = _select(spans, "analytic.cdf_two_turn_bound")
    malformed = _select(spans, "cli.main", command="malformed")
    t_sampler, t_oracle, t_decomp = _total(sampler), _total(oracle), _total(decomp)

    values = {
        "sampler.us_per_call": 1e6 * _mean_s(sampler, "sample_palm"),
        "sampler.share": _ratio(t_sampler, t_decomp, "sampler share"),
        "sampler.lines_per_trial": _mean_attr(sampler, "lines"),
        "sampler.points_per_trial": _mean_attr(sampler, "points"),
        **{f"oracle.enum_us_per_call.{p}": 1e6 * _mean_s(
            _select(spans, "oracle.shortest_path", policy(p)), p)
           for p in ENUM_POLICIES},
        "oracle.kturn_us_per_call": 1e6 * _mean_s(
            _select(spans, "oracle.shortest_path", policy("k-turn")), "k-turn search"),
        "oracle.pairs_per_trial": _pairs_per_trial(spans),
        "oracle.censored_frac": _ratio(
            sum(bool(s["attrs"]["censored"]) for s in oracle), len(oracle), "censoring"),
        "experiments.us_per_trial": 1e6 * _ratio(
            _total(jobs_mc), sum(s["attrs"]["trials"] for s in jobs_mc), "run_mc"),
        "experiments.driver_overhead_frac":
            1.0 - _ratio(t_sampler + t_oracle, t_decomp, "run_mc decomposition"),
        "experiments.w2_speedup": _ratio(_total(w1), _total(w2), "workers=2 rerun"),
        "analytic.thm2_ms_per_point": 1e3 * _ratio(
            _total(thm2), sum(s["attrs"]["points"] for s in thm2), "thm2"),
        "analytic.thm3_ms_per_point": 1e3 * _ratio(
            _total(thm3), sum(s["attrs"]["points"] for s in thm3), "thm3-bound"),
        "analytic.closed_us_per_curve":
            1e6 * _mean_s(_select(spans, "analytic.closed"), "closed forms"),
        "applications.reach_ms.one-turn-intersection": 1e3 * _mean_s(
            _select(spans, "applications.reach_quantile", policy("one-turn-intersection")),
            "one-turn-intersection quantile"),
        "applications.reach_us.closed": 1e6 * _mean_s(
            _select(spans, "applications.reach_quantile", policy(*CLOSED_REACH)),
            "closed-form quantile"),
        "applications.success_us_per_call":
            1e6 * _mean_s(_select(spans, "applications.success"), "link success"),
        "cli.export_ms": 1e3 * _mean_s(_select(spans, "cli.main", command="export"),
                                       "cli export"),
        "cli.compare_ms": 1e3 * _mean_s(_select(spans, "cli.main", command="compare"),
                                        "cli compare"),
        "cli.malformed_exit_ok_frac": _ratio(
            sum(s["attrs"].get("exit") in MALFORMED_EXITS for s in malformed),
            len(malformed), "malformed requests"),
        "trace.overhead_frac": overhead_frac,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def _pairs_per_trial(spans) -> float:
    """Line pairs n(n-1)/2 the k-turn search considers per trial, computed
    from the sampled line count (the search itself is not instrumented).
    ``decompose`` records each trial's sampler span right before its
    oracle span."""
    trials = [(sp, orc) for sp, orc in zip(spans, spans[1:])
              if sp["name"] == "sampler.sample_palm"
              and orc["name"] == "oracle.shortest_path"
              and orc["attrs"]["policy"] == "k-turn"]
    own = [t for t in trials if not t[0]["request"].startswith(PROBE_PREFIX)]
    pairs = [sp["attrs"]["lines"] * (sp["attrs"]["lines"] - 1) / 2
             for sp, _ in own or trials]
    return _ratio(sum(pairs), len(pairs), "k-turn pairs")
