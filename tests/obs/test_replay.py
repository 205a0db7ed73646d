"""Replay equality is the determinism gate of a seeded flight recording.

Each arm is recorded twice, each time in a fresh interpreter, and the two
JSONL files must be equal record for record once host timings are dropped
(:mod:`tests.oracles.replay`).  The arms are the chaos-smoke CI job's two
campaigns, one travel-agency federation under seeded loss and delay
jitter (the campaigns' chaos plans set no jitter, so only this arm draws
from the jitter stream), the golden tests' protocol arms on generated
scenarios, and one monitored session that repairs a degrade and a crash.

The gate is shown to have teeth: each seeded random stream of the
protocol, reseeded from OS entropy in both runs, makes an arm differ.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import ChaosPlan, SFlowAlgorithm, SFlowConfig, obs
from repro.services.workloads import travel_agency_scenario
from tests.oracles.replay import assert_replays_equal, without_wall


def _campaign(*intensities):
    args = ["--sizes", "10", "16", "--trials", "3", "--seed", "0"]
    args += ["--intensities", *intensities, "--record"]
    return (
        "import sys\n"
        "from repro.eval.robustness import main\n"
        f"sys.exit(main({args!r} + [sys.argv[1]]))\n"
    )


def _golden(scenario, arm):
    """One arm of ``tests/core/test_sflow_golden.py`` on one of its scenarios."""
    return (
        "import sys\n"
        "from repro import obs\n"
        "from tests.core.test_sflow_golden import SCENARIOS, _arm, _federate, _scenario\n"
        f"(row,) = [row for row in SCENARIOS if row[0] == {scenario!r}]\n"
        "with obs.recording(sys.argv[1]):\n"
        "    scenario = _scenario(*row[1:])\n"
        f"    _federate(scenario, *_arm({arm!r}, scenario))\n"
    )


TRAVEL_AGENCY = """\
import sys
from repro import ChaosPlan, SFlowAlgorithm, SFlowConfig, obs
from repro.services.workloads import travel_agency_scenario

scenario = travel_agency_scenario()
with obs.recording(sys.argv[1]):
    SFlowAlgorithm(SFlowConfig(loss_rate=0.2, loss_seed=1)).federate(
        scenario.requirement,
        scenario.overlay,
        source_instance=scenario.source_instance,
        chaos=ChaosPlan(delay_jitter=0.5, loss_rate=0.1, seed=3),
    )
"""

MONITORED_REPAIR = """\
import sys
from repro import obs
from repro.core.monitor import MonitoredFederation
from repro.network.failures import degrade_links, fail_instances
from repro.services.workloads import travel_agency_scenario

scenario = travel_agency_scenario()
with obs.recording(sys.argv[1]):
    fed = MonitoredFederation(
        scenario.requirement, scenario.overlay,
        source_instance=scenario.source_instance,
    )
    links = [(edge.src, edge.dst) for edge in fed.graph.edges()]
    fed.schedule_mutation(
        7.0, lambda o: degrade_links(o, links, bandwidth_factor=0.05)
    )
    fed.schedule_mutation(
        12.0, lambda o: fail_instances(o, [fed.graph.instance_for("hotel")])
    )
    assert fed.run(until=40).repairs == 2
"""

ARMS = {
    "baseline-campaign": _campaign("0.0"),
    "chaos-campaign": _campaign("0.0", "0.4", "0.8"),
    "travel-agency": TRAVEL_AGENCY,
    "loss-path-n16": _golden("path-n16", "loss"),
    "crash-revive-general-n16": _golden("general-n16", "crash-revive"),
    "gray-splitmerge-n16": _golden("splitmerge-n16", "gray"),
    "deadline-disjoint-n16": _golden("disjoint-n16", "deadline"),
    "link-state-general-n12": _golden("general-n12", "link-state"),
    "link-state-crash-general-n20": _golden("general-n20", "link-state-crash"),
    "monitored-repair": MONITORED_REPAIR,
}

#: Each seeded stream reseeded from OS entropy after its owner is built,
#: and one arm that draws from it.
MUTANTS = {
    "unseeded-jitter": ("repro.core.recovery", "_Recovery", "_jitter_rng", "travel-agency"),
    "unseeded-loss": ("repro.core.recovery", "_Recovery", "_loss_rng", "travel-agency"),
    "unseeded-chaos-loss": ("repro.core.recovery", "_Recovery", "_chaos_rng", "travel-agency"),
    "unseeded-gray-channel": (
        "repro.network.failures", "_GrayChannelModel", "_rng", "chaos-campaign",
    ),
}

UNSEED = """\
import importlib, random
_owner = getattr(importlib.import_module({module!r}), {owner!r})
_init = _owner.__init__
def _unseeded_init(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    if hasattr(self, {attr!r}):
        self.{attr} = random.Random()
_owner.__init__ = _unseeded_init
"""


def _record_twice(source, tmp_path):
    """Run ``source`` in two fresh interpreters at once; their recordings."""
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", source, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=env,
        )
        for path in paths
    ]
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    return paths


def _load(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_seeded_recording_replays_equal(arm, tmp_path):
    first, second = _record_twice(ARMS[arm], tmp_path)
    spans = [record for record in _load(first) if record["type"] == "span"]
    assert spans, "the arm recorded no span"
    assert_replays_equal(first, second)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_an_unseeded_stream_breaks_replay(mutant, tmp_path):
    module, owner, attr, arm = MUTANTS[mutant]
    prelude = UNSEED.format(module=module, owner=owner, attr=attr)
    first, second = _record_twice(prelude + ARMS[arm], tmp_path)
    with pytest.raises(AssertionError, match="differs|records against"):
        assert_replays_equal(first, second)


def _renumbered(records):
    """``records`` with span and trace ids numbered from 0 by first use."""
    ids = {}

    def renumber(value):
        if isinstance(value, dict):
            return {
                key: (
                    ids.setdefault(("trace" if key == "trace" else "span", item), len(ids))
                    if key in ("span", "parent", "trace") and isinstance(item, int)
                    else renumber(item)
                )
                for key, item in value.items()
            }
        if isinstance(value, list):
            return [renumber(item) for item in value]
        return value

    return [renumber(without_wall(record)) for record in records]


def _histogram_sums(records):
    """``records`` with every histogram ``sum`` taken out, and those sums.

    A recording's metrics record is the registry's delta over the run,
    so a histogram's ``sum`` is a difference of process-cumulative float
    sums and carries rounding from whatever ran before in the process.
    """
    sums = []
    for record in records:
        for metric in record.get("snapshot", {}).values():
            if metric["kind"] == "histogram":
                for series in metric["values"].values():
                    sums.append(series.pop("sum"))
    return records, sums


def _federate_in_process(scenario, path):
    with obs.recording(path):
        SFlowAlgorithm(SFlowConfig(loss_rate=0.2, loss_seed=1)).federate(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
            chaos=ChaosPlan(delay_jitter=0.5, loss_rate=0.1, seed=3),
        )
    return _load(path)


def test_in_process_rerun_differs_in_ids_and_histogram_sum_rounding(tmp_path):
    first = _federate_in_process(travel_agency_scenario(), tmp_path / "first.jsonl")
    second = _federate_in_process(travel_agency_scenario(), tmp_path / "second.jsonl")
    assert [without_wall(r) for r in first] != [without_wall(r) for r in second]
    first, first_sums = _histogram_sums(_renumbered(first))
    second, second_sums = _histogram_sums(_renumbered(second))
    assert first == second
    assert second_sums == pytest.approx(first_sums, rel=1e-12)


def test_in_process_rerun_over_one_overlay_finds_the_oracle_warm(tmp_path):
    scenario = travel_agency_scenario()
    first = _federate_in_process(scenario, tmp_path / "first.jsonl")
    second = _federate_in_process(scenario, tmp_path / "second.jsonl")
    first, _ = _histogram_sums(_renumbered(first))
    second, _ = _histogram_sums(_renumbered(second))
    assert len(first) == len(second)
    differing = [i for i, (x, y) in enumerate(zip(first, second)) if x != y]
    assert [first[i]["type"] for i in differing] == ["metrics"]
    before, after = first[differing[0]]["snapshot"], second[differing[0]]["snapshot"]
    moved = {name for name in before.keys() | after.keys() if before.get(name) != after.get(name)}
    assert moved and all(name.startswith("oracle.") for name in moved)


class TestWithoutWall:
    def test_drops_top_level_wall_keys(self):
        assert without_wall({"wall_seconds": 1.5, "wall": 2, "t": 3.0}) == {"t": 3.0}

    def test_drops_wall_keys_at_any_depth(self):
        record = {"attrs": {"wall_seconds": 0.5, "n": 1}, "rows": [{"wall_ms": 4, "k": "x"}]}
        assert without_wall(record) == {"attrs": {"n": 1}, "rows": [{"k": "x"}]}

    def test_keeps_keys_that_only_contain_wall(self):
        record = {"firewall": 1, "sim_wall": 2, "Wall": 3}
        assert without_wall(record) == record

    def test_leaves_its_argument_unchanged(self):
        record = {"attrs": {"wall_seconds": 0.5}, "rows": [{"wall_ms": 4}]}
        without_wall(record)
        assert record == {"attrs": {"wall_seconds": 0.5}, "rows": [{"wall_ms": 4}]}

    @pytest.mark.parametrize("value", [None, 0, 2.5, "wall", True])
    def test_scalars_pass_through(self, value):
        assert without_wall(value) == value


def _write(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


BASE = [
    {"type": "meta", "format": "sflow-flight-recorder/2"},
    {"type": "span", "name": "discovery", "start": 0.0, "end": 1.0,
     "attrs": {"wall_seconds": 0.25}},
    {"type": "event", "name": "channel.send", "time": 1.0, "attrs": {"msg_id": 1}},
]


class TestAssertReplaysEqual:
    def test_host_timing_alone_replays_equal(self, tmp_path):
        other = json.loads(json.dumps(BASE))
        other[1]["attrs"]["wall_seconds"] = 9.75
        assert_replays_equal(_write(tmp_path / "a", BASE), _write(tmp_path / "b", other))

    def test_accepts_str_paths_and_ignores_blank_lines(self, tmp_path):
        a = _write(tmp_path / "a", BASE)
        b = tmp_path / "b"
        b.write_text(a.read_text().replace("\n", "\n\n"))
        assert_replays_equal(str(a), str(b))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda records: records[2].update(time=1.5),
            lambda records: records[2]["attrs"].update(msg_id=2),
            lambda records: records[1].update(name="abstract_graph"),
            lambda records: records.insert(1, records.pop(2)),
        ],
        ids=["sim-time", "attr-value", "span-name", "order"],
    )
    def test_any_other_difference_names_its_record(self, tmp_path, edit):
        other = json.loads(json.dumps(BASE))
        edit(other)
        with pytest.raises(AssertionError, match=r"^record 2 differs|^record 3 differs"):
            assert_replays_equal(_write(tmp_path / "a", BASE), _write(tmp_path / "b", other))

    @pytest.mark.parametrize("longer", ["first", "second"])
    def test_a_missing_trailing_record_fails(self, tmp_path, longer):
        short = _write(tmp_path / "short", BASE[:-1])
        full = _write(tmp_path / "full", BASE)
        pair = (full, short) if longer == "first" else (short, full)
        with pytest.raises(AssertionError, match="records against"):
            assert_replays_equal(*pair)
