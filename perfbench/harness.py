"""Workloads, the study pipeline, its correctness gate and the measured loop.

One study is the pipeline a user runs to verify the paper, driven through the
package's public functions in the order ``gridp2p simulate --mode compare``
and ``gridp2p audit`` use them: simulate the three modes and compare them,
write the CSVs, audit them, then check D_hp stability and truthful delivery
at every peak slot. Building, saving and reloading the scenario is the
workload's set-up and is timed separately.

The load is a closed loop: one process and one thread run one study at a
time with ``jobs=1``, and the next study starts when the previous one and its
correctness gate have finished.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gridp2p import (
    Venue,
    baseline_grid_only,
    baseline_third_party,
    check_dhp_stability,
    compare,
    load_scenario,
    make_case_study_scenario,
    run_horizon,
    save_scenario,
    stability_context,
    verify_truthful_delivery,
)
from gridp2p.coalition import GRID_ID
from gridp2p.reports import audit_run, write_run, write_summary
from spans import NullTracer, Tracer, hooked

SETUP_REPEATS = 9
# The host's speed flips within a second, so it is sampled this often during
# an untraced run after its first study; one sample costs about 2.5% of this
# period.
SAMPLE_PERIOD_S = 0.02
# A timed interval holding fewer samples than this is priced with this many
# samples nearest to it.
MIN_SAMPLES = 8
# setup_s is in seconds on a host where one reference() takes this long, as
# on the 2-vCPU host the first baseline was measured on.
REFERENCE_NOMINAL_S = 0.0005
TAIL_MIN_STUDIES = 200
NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class Workload:
    """A fleet size, a horizon, and how many consecutive seeds one run cycles through."""

    name: str
    prosumers: int
    slots: int
    scenarios: int = 1


# In BENCHMARK.json's order; the reasons for each are there and in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet-192", prosumers=192, slots=22),
        Workload("long-horizon", prosumers=24, slots=1344),
        Workload("case-sweep", prosumers=12, slots=22, scenarios=64),
    )
}


# --- Set-up ------------------------------------------------------------------


def build_scenarios(workload: Workload, seed: int, scenario_dir: Path, tracer) -> tuple[list, list]:
    """Generate, save and reload the workload's scenarios (seeds ``seed`` onwards)."""
    built, loaded = [], []
    for k in range(workload.scenarios):
        path = scenario_dir / f"scenario-{k}.json"
        with tracer.span("core.make_case_study_scenario"):
            scenario = make_case_study_scenario(
                seed + k, n_prosumers=workload.prosumers, slots=workload.slots
            )
        with tracer.span("core.save_scenario"):
            save_scenario(scenario, path)
        with tracer.span("core.load_scenario"):
            loaded.append(load_scenario(path))
        built.append(scenario)
    return built, loaded


# --- One study ---------------------------------------------------------------


@dataclass
class StudyOutput:
    """What one study produced, for the gate and the counters."""

    p2p: object
    reports: tuple
    table: object
    problems: list
    verdicts: list = field(default_factory=list)
    deliveries: list = field(default_factory=list)


def run_study(scenario, out_dir: Path, tracer) -> tuple[float, float, StudyOutput]:
    """Steps 2 to 5 of one study; returns its start and end times and its outputs."""
    span = tracer.span
    start = time.perf_counter()
    with span("study"):
        with span("engine.run_horizon"):
            p2p = run_horizon(scenario)
        with span("engine.baseline_grid_only"):
            grid_only = baseline_grid_only(scenario)
        with span("engine.baseline_third_party"):
            third_party = baseline_third_party(scenario)
        with span("engine.compare"):
            table = compare(p2p, grid_only, third_party)
        with span("reports.write_run"):
            write_run(p2p, out_dir)
        with span("reports.write_summary"):
            write_summary(table, out_dir)
        with span("reports.audit_run"):
            problems = audit_run(out_dir)
        out = StudyOutput(p2p, (p2p, grid_only, third_party), table, problems)
        for s in p2p.slots:
            if s.structure is None:
                continue
            with span("coalition.check_dhp_stability"):
                out.verdicts.append(check_dhp_stability(s.structure, stability_context(scenario, s)))
            outcome = s.structure.outcome
            if not outcome.is_empty:
                with span("auction.verify_truthful_delivery"):
                    delivered = delivered_at_auction(outcome, s.trades)
                    out.deliveries.append(verify_truthful_delivery(outcome, delivered))
    return start, time.perf_counter(), out


# --- Host speed reference ---------------------------------------------------


@dataclass(frozen=True)
class _Leg:
    who: str
    qty: Fraction
    price: Fraction


def reference() -> int:
    """A fixed computation with the program's mix of work but none of its code.

    Exact rationals, small frozen records, dict sums, six-decimal formatting
    and a sort, as in settlement and emission; about half a millisecond.
    Changes to gridp2p never touch it.
    """
    totals: dict[str, Fraction] = {}
    rows = []
    price = Fraction(1372, 100)
    for i in range(1, 26):
        qty = Fraction(i * 37 % 101 + 1, i % 13 + 3) * Fraction(i % 7 + 1, 11)
        leg = _Leg(f"p{i % 24:02d}", qty, price)
        totals[leg.who] = totals.get(leg.who, 0) + leg.qty * leg.price
        rows.append(f"{i},{leg.who},{float(leg.qty):.6f},{float(leg.price):.6f}")
    rows.sort()
    return len("\n".join(rows)) + len(totals)


class SpeedSampler:
    """Times :func:`reference` on a timer signal, to price intervals in reference runs.

    The shared host's speed flips by up to 2x within a second, and a study
    lasts up to seconds, so samples taken only between studies miss most of
    the speed a study ran at. The signal handler runs between bytecodes of
    whatever is being timed, every ``SAMPLE_PERIOD_S``, so the samples cover
    each study from the inside.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        # No collection may start inside a sample, so the collector runs at
        # the same points of a study as without samples, and so does its
        # peak memory. The sample frees all it allocates.
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        reference()
        self.starts.append(begin)
        self.times.append(time.perf_counter() - begin)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def wait(self, samples: int) -> None:
        """Sleep until at least ``samples`` samples have been taken."""
        while len(self.times) < samples:
            time.sleep(SAMPLE_PERIOD_S)

    def cost(self, start: float, end: float) -> float:
        """The interval's time, less the samples taken in it, in reference runs.

        Work done is time over the cost per unit of work, so the time is
        multiplied by the mean inverse time of the samples in the interval,
        widened to the nearest ``MIN_SAMPLES`` when it holds fewer.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = end - start - sum(self.times[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return own * statistics.fmean(1 / t for t in self.times[lo:hi])


# --- Correctness gate --------------------------------------------------------


def _exact_sum(values: list[Fraction]) -> Fraction:
    # Summing over the common denominator keeps the result exact at a
    # fraction of the cost of adding Fractions one by one.
    if len(values) == 1:
        return values[0]
    denominator = math.lcm(*{v.denominator for v in values})
    return Fraction(sum(v.numerator * (denominator // v.denominator) for v in values), denominator)


def _add(totals: dict, key, value: Fraction) -> None:
    totals[key] = totals[key] + value if key in totals else value


def delivered_at_auction(outcome, trades) -> dict[str, Fraction]:
    """Each trading seller's kWh in the settled auction trades of its slot (0 if none).

    This is what settlement delivered, read independently of the cleared
    quantities, so a pairing or settlement fault shows as a deviation.
    """
    sent: dict[str, list[Fraction]] = {f.prosumer_id: [] for f in outcome.seller_fills}
    for t in trades:
        if t.venue is Venue.AUCTION:
            sent.setdefault(t.seller_id, []).append(t.quantity)
    return {pid: _exact_sum(q) if q else Fraction(0) for pid, q in sent.items()}


def slot_prices(scenario, s) -> set[tuple]:
    """The (venue, sold by the grid, seller price, buyer price) the paper allows in a slot.

    Auction trades settle at the clearing price; mid-market sellers get the
    midpoint of that price (the feed-in tariff without one) and the tariff,
    and buyers pay it times (1 + beta); the grid buys at the tariff and sells
    at the slot's selling price; the third party sells at its own price.
    """
    fit = Fraction(scenario.grid.fit_price)
    third = Fraction(scenario.market.third_party_price)
    grid_sale = Fraction(s.price_signal.selling_price)
    allowed = {
        (Venue.GRID, False, fit, fit),
        (Venue.GRID, True, grid_sale, grid_sale),
        (Venue.THIRD_PARTY, False, third, third),
    }
    if s.structure is not None:
        p_auc = s.structure.outcome.auction_price
        if p_auc is not None:
            allowed.add((Venue.AUCTION, False, Fraction(p_auc), Fraction(p_auc)))
        mid = (scenario.grid.fit_price if p_auc is None else p_auc) + scenario.grid.fit_price
        sell = Fraction(mid / 2)
        allowed.add((Venue.MID_MARKET, False, sell, sell * (1 + Fraction(scenario.market.beta))))
    return allowed


def check_settlement(scenario, report) -> list[str]:
    """Exact energy conservation, prices and settled cash of one report, slot by slot.

    Every active prosumer's routed kWh equals its |net| position, on its own
    side only; the auction clears equal totals on both sides; every trade is
    priced as its venue requires; and each prosumer's settled revenue and cost
    equal what its trades pay at their prices.
    """
    errors: list[str] = []
    for s in report.slots:
        sells: dict[tuple, list[Fraction]] = {}
        buys: dict[tuple, list[Fraction]] = {}
        priced: set[tuple] = set()
        for t in s.trades:
            sells.setdefault((t.seller_id, t.seller_price), []).append(t.quantity)
            buys.setdefault((t.buyer_id, t.buyer_price), []).append(t.quantity)
            priced.add((t.venue, t.seller_id == GRID_ID, t.seller_price, t.buyer_price))
        if not priced <= slot_prices(scenario, s):
            errors.append(f"slot {s.slot}: a trade is not priced as its venue requires")
        sold: dict[str, Fraction] = {}
        revenue: dict[str, Fraction] = {}
        for (pid, seller_price), quantities in sells.items():
            qty = _exact_sum(quantities)
            _add(sold, pid, qty)
            _add(revenue, pid, seller_price * qty)
        bought: dict[str, Fraction] = {}
        cost: dict[str, Fraction] = {}
        for (pid, buyer_price), quantities in buys.items():
            qty = _exact_sum(quantities)
            _add(bought, pid, qty)
            _add(cost, pid, buyer_price * qty)
        if s.structure is not None and not s.structure.outcome.is_empty:
            out = s.structure.outcome
            if sum(f.cleared for f in out.seller_fills) != sum(f.cleared for f in out.buyer_fills):
                errors.append(f"slot {s.slot}: auction cleared totals differ")
        for p in scenario.prosumers:
            net = Fraction(p.net_energy[s.slot])
            routed, other = (sold, bought) if net > 0 else (bought, sold)
            if net != 0 and (routed.get(p.id) != abs(net) or p.id in other):
                errors.append(f"slot {s.slot}: {p.id} routed kWh differ from its position")
            settled = s.per_prosumer[p.id]
            if settled.revenue != revenue.get(p.id, 0) or settled.cost != cost.get(p.id, 0):
                errors.append(f"slot {s.slot}: {p.id} settled cash differs from its trades")
    return errors


def check_study(scenario, out: StudyOutput) -> list[str]:
    """Everything the paper claims of one study, checked exactly; the headline claims first."""
    errors = []
    peak_costs = [s.cps_cost for s in out.p2p.slots if s.price_signal.peak_flag]
    if not peak_costs:
        errors.append("no peak slot")
    if any(c != 0 for c in peak_costs) or out.table.cps_cost_with_p2p != 0:
        errors.append("peak system cost is not zero")
    if any(not d.ok for d in out.deliveries):
        errors.append("truthful delivery flagged a cleared outcome")
    if any(not v.stable for v in out.verdicts):
        errors.append("a peak structure is not D_hp stable")
    if out.problems:
        errors.append(f"audit: {out.problems[0]} ({len(out.problems)} problems)")
    return errors + check_settlement(scenario, out.p2p)


def digest_outputs(out_dir: Path) -> tuple[str, dict[str, int]]:
    """sha256 over the emitted CSVs (name and bytes, in name order), and their sizes."""
    h = hashlib.sha256()
    sizes = {"bytes": 0, "rows": 0, "trade_rows": 0}
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        rows = data.count(b"\n") - 1
        sizes["bytes"] += len(data)
        sizes["rows"] += rows
        if path.name == "trades.csv":
            sizes["trade_rows"] = rows
    return h.hexdigest(), sizes


def study_counts(scenario, out: StudyOutput, sizes: dict[str, int]) -> dict[str, int]:
    """Work counts of one study, read from its reports and files."""
    net = {p.id: p.net_energy for p in scenario.prosumers}
    book = trading = pairs = 0
    for s in out.p2p.slots:
        if s.structure is None:
            continue
        outcome = s.structure.outcome
        book += len(s.structure.auction_members) + len(s.structure.midmarket_members)
        trading += len(outcome.seller_fills) + len(outcome.buyer_fills)
        mid_sellers = sum(net[pid][s.slot] > 0 for pid in s.structure.midmarket_members)
        pairs += mid_sellers * (len(s.structure.midmarket_members) - mid_sellers)
    return {
        "book_orders": book,
        "trading": trading,
        "midmarket_pairs": pairs,
        "unstable_slots": sum(not v.stable for v in out.verdicts),
        "slots": sum(len(r.slots) for r in out.reports),
        "peak_slots": sum(s.price_signal.peak_flag for s in out.p2p.slots),
        "bytes_written": sizes["bytes"],
        "trade_rows": sizes["trade_rows"],
        "rows_audited": sizes["rows"],
        "audit_problems": len(out.problems),
    }


# --- The measured loop ---------------------------------------------------------


@dataclass
class StudyRecord:
    index: int
    traced: bool
    start: float | None = None
    seconds: float | None = None
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    spans_path: Path | None = None,
) -> dict:
    """Set up the workload, run studies for ``seconds``, and compute the metrics.

    A new study starts while less than ``seconds`` have passed, so a run
    overshoots by at most one study and its gate. Study and set-up times are
    reported raw in ``detail`` and, as metrics, in reference runs priced by a
    :class:`SpeedSampler`. ``setup_s`` turns reference runs back into
    seconds at ``REFERENCE_NOMINAL_S`` per run. The first set-up and study
    are a warm-up: they run before the sampler starts, and peak memory is
    read right after them, because samples landing inside a study at random
    points now and then raise its peak by a few MB.

    Returns a dict with ``correct``, ``attempted``, ``failed``, ``metrics``
    (end-to-end metrics without tracing, per-layer metrics with it) and
    ``detail`` (sample counts, digests, failures, absent hooks). With tracing
    on, studies alternate untraced and traced on the same scenario, so the
    tracing overhead is measured within the run, and the spans are written to
    ``spans_path`` when one is given.
    """
    tracer = Tracer() if trace else NULL_TRACER
    scenario_dir = workdir / "scenarios"
    out_dir = workdir / "out"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    setups: list[tuple[float, float]] = []  # (start, end) of each set-up
    setup_errors: list[str] = []

    def set_up() -> list:
        if trace:
            tracer.study = f"setup{len(setups)}"
        start = time.perf_counter()
        built, loaded = build_scenarios(workload, seed, scenario_dir, tracer)
        setups.append((start, time.perf_counter()))
        if built != loaded and not setup_errors:
            setup_errors.append("a scenario changed on its save/load round trip")
        return loaded

    records: list[StudyRecord] = []
    digests: dict[int, str] = {}
    absent: set[str] = set()
    per_scenario = 2 if trace else 1
    sampler = SpeedSampler()
    with contextlib.ExitStack() as sampling:
        pool = set_up()
        scenario_bytes = sum(p.stat().st_size for p in scenario_dir.glob("scenario-*.json"))
        start = time.perf_counter()
        while True:
            index = len(records)
            k = (index // per_scenario) % len(pool)
            traced = trace and index % 2 == 1
            # Each study starts from the same collector state, so a full
            # collection falls at the same point of every study.
            gc.collect()
            record = StudyRecord(index, traced)
            try:
                if traced:
                    tracer.study = index
                    with hooked(tracer, absent):
                        record.start, end, out = run_study(pool[k], out_dir, tracer)
                else:
                    record.start, end, out = run_study(pool[k], out_dir, NULL_TRACER)
                record.seconds = end - record.start
                record.errors = check_study(pool[k], out)
                digest, sizes = digest_outputs(out_dir)
                record.counts = study_counts(pool[k], out, sizes)
                if digests.setdefault(k, digest) != digest:
                    record.errors.append("CSV digest differs from an earlier study of the same scenario")
                del out
            except Exception:
                # A failing study is counted, not fatal: the run goes on.
                traceback.print_exc(file=sys.stderr)
                record.errors.append(f"study raised {sys.exc_info()[0].__name__}")
            records.append(record)
            if index == 0:
                # ru_maxrss is in KiB on Linux.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                # Timer samples would land inside the spans, so a traced run
                # takes none.
                if not trace:
                    sampling.enter_context(sampler)
            elapsed = time.perf_counter() - start
            # The other set-ups are spread over the run, so a burst of contention
            # on the shared host touches few of them.
            share = min(elapsed / seconds, 1.0) if seconds > 0 else 1.0
            while len(setups) < 1 + int((SETUP_REPEATS - 1) * share):
                set_up()
            # At least the warm-up and one more study.
            if len(records) >= 2 and len(records) % per_scenario == 0 and elapsed >= seconds:
                break
        while len(setups) < SETUP_REPEATS:
            set_up()
        if not trace:
            # The last intervals are priced by samples after them too.
            sampler.wait(len(sampler.times) + MIN_SAMPLES // 2)

    failed = [r for r in records if r.errors]
    # An untraced run leaves its warm-up out of the study times.
    untraced = [r for r in records if r.seconds is not None and not r.traced and (trace or r.index > 0)]
    if not untraced:
        raise RuntimeError("no study completed; see the errors above")
    timed = [r.seconds for r in untraced]
    combined = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest()
    work = workload.prosumers * workload.slots
    p50 = statistics.median(timed)
    detail = {
        "setup_repeats": len(setups),
        "setup_raw_s": statistics.median(end - start for start, end in setups),
        "studies": len(records),
        "timed_studies": len(timed),
        "traced_studies": sum(r.traced for r in records),
        "scenario_seeds": [seed, seed + workload.scenarios - 1],
        "scenarios_covered": len(digests),
        "csv_sha256": combined,
        "study_seconds": [r.seconds for r in records],
        # A tail percentile needs enough studies beyond it; only case-sweep
        # runs that many, so it is reported here rather than as a metric.
        "study_p95_s": _p95(timed) if len(timed) >= TAIL_MIN_STUDIES else None,
        "fail_ratio": len(failed) / len(records),
        "failures": [f"study {r.index}: {e}" for r in failed[:5] for e in r.errors[:3]],
        "setup_errors": setup_errors,
        "study_p50_s": p50,
        "prosumer_slots_per_s": work / p50,
    }
    if not trace:
        detail["reference_s"] = statistics.median(sampler.times)
        detail["reference_samples"] = len(sampler.times)
        cost = statistics.median(sampler.cost(r.start, r.start + r.seconds) for r in untraced)
        setup_cost = statistics.median(sampler.cost(start, end) for start, end in setups[1:])
        metrics = {
            "setup_s": (setup_cost * REFERENCE_NOMINAL_S, "s"),
            "study_p50_ref": (cost, "ref"),
            "prosumer_slots_per_ref": (work / cost, "1/ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, records, scenario_bytes)
        detail["absent_hooks"] = sorted(absent)
        steps = [t for sid, t in tracer.step_times().items() if isinstance(sid, int)]
        detail["step_inclusive_s"] = {
            name: statistics.median(t.get(name, 0) for t in steps) / 1e9 for name in steps[0]
        }
        if spans_path is not None:
            tracer.write(spans_path)
    return {
        "correct": not failed and not setup_errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


# --- Per-layer metrics from the spans ------------------------------------------

# Metric name -> the span names whose self times it sums.
SELF_TIME_METRICS = {
    "leader.decide_s": ("leader.decide_slot_price",),
    "auction.clear_s": ("auction.clear",),
    "auction.verify_s": ("auction.verify_truthful_delivery",),
    "coalition.partition_s": ("coalition.partition",),
    "coalition.match_midmarket_s": ("coalition.match_midmarket",),
    "coalition.stability_s": ("coalition.check_dhp_stability",),
    "engine.run_slot_self_s": ("engine.run_slot",),
    "engine.horizon_self_s": ("engine.run_horizon",),
    "engine.baseline_s": ("engine.baseline_grid_only", "engine.baseline_third_party"),
    "engine.aggregate_s": ("engine.aggregate_slots",),
    "engine.compare_s": ("engine.compare",),
    "reports.write_s": ("reports.write_run", "reports.write_summary"),
    "reports.audit_s": ("reports.audit_run",),
    # The root span's self time is the part of the study no other span covers.
    "trace.uncovered_s": ("study",),
}
CALL_COUNT_METRICS = {
    "leader.calls": "leader.decide_slot_price",
    "auction.clear_calls": "auction.clear",
    "coalition.stability_checks": "coalition.check_dhp_stability",
}
STUDY_COUNT_METRICS = {
    "coalition.midmarket_pairs": "midmarket_pairs",
    "coalition.unstable_slots": "unstable_slots",
    "engine.slots": "slots",
    "engine.peak_slots": "peak_slots",
    "reports.bytes_written": "bytes_written",
    "reports.trade_rows": "trade_rows",
    "reports.rows_audited": "rows_audited",
    "reports.audit_problems": "audit_problems",
}
CORE_METRICS = {
    "core.generate_s": "core.make_case_study_scenario",
    "core.save_s": "core.save_scenario",
    "core.load_s": "core.load_scenario",
}


def layer_metrics(tracer: Tracer, records: list[StudyRecord], scenario_bytes: int) -> dict:
    """Medians over the traced studies (times) and over all studies (counts)."""
    by_study = tracer.self_times()
    traced = [by_study.get(r.index, {}) for r in records if r.traced and r.seconds is not None]
    setups = [by_study[key] for key in by_study if isinstance(key, str)]
    counted = [r.counts for r in records if r.counts]

    def seconds(totals, names):
        return sum(totals.get(n, (0, 0))[1] for n in names) / 1e9

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span_name in CORE_METRICS.items():
        metrics[metric] = (statistics.median(seconds(t, (span_name,)) for t in setups), "s")
    metrics["core.scenario_bytes"] = (scenario_bytes, "bytes")
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = (statistics.median(seconds(t, names) for t in traced), "s")
    for metric, span_name in CALL_COUNT_METRICS.items():
        metrics[metric] = (statistics.median(t.get(span_name, (0, 0))[0] for t in traced), "count")
    for metric, key in STUDY_COUNT_METRICS.items():
        unit = "bytes" if key == "bytes_written" else "count"
        metrics[metric] = (statistics.median(c[key] for c in counted), unit)
    book = sum(c["book_orders"] for c in counted)
    metrics["auction.cleared_ratio"] = (
        sum(c["trading"] for c in counted) / book if book else 0.0,
        "ratio",
    )
    traced_s = [r.seconds for r in records if r.traced and r.seconds is not None]
    untraced_s = [r.seconds for r in records if not r.traced and r.seconds is not None]
    metrics["trace.study_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return metrics
