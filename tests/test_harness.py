"""Harness: config schema, presets, seeding, commands, CLI exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chan_em import (
    ChannelParams,
    InsufficientDataError,
    ObservedDataset,
    heuristic_starts,
    multi_start,
    relative_error,
    run_em,
    utilization,
)
from chan_em.errors import ConfigError
from chan_em.harness import (
    ExperimentConfig,
    GridSpec,
    cmd_multichannel,
    cmd_rank,
    cmd_se_grid,
    cmd_simulate,
    cmd_table1,
    cmd_trajectories,
    config_hash,
    derive_seed,
    parse_config,
    preset_config,
    realize_dataset,
    realize_histogram,
)
from chan_em.harness import experiments
from chan_em.harness.cli import main
from chan_em.harness.presets import PRESET_NAMES
from chan_em.markov import run_blocks
from chan_em.observation import ObservationSchedule, _write_rows, open_slot_states


def small_config(out_dir: Path, **overrides) -> dict:
    base = {
        "true_params": [{"alpha": 0.8, "beta": 0.3}],
        "schedule": {"kind": "fixed", "skip": 4},
        "observed_slots": 2000,
        "starts": [{"alpha": 0.6, "beta": 0.5}, {"alpha": 0.2, "beta": 0.8}],
        "em": {"max_iterations": 30, "record_trajectory": True},
        "master_seed": 7,
        "output_dir": str(out_dir),
    }
    base.update(overrides)
    return base


def data_rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def header_of(path: Path) -> str:
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            return line
    raise AssertionError(f"{path} has no header line")


def meta_of(path: Path) -> dict[str, str]:
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        meta[key] = value
    return meta


# each entry, merged into small_config at the top level, makes the config invalid
INVALID_MUTATIONS = [
    {"unknown_top": 1},
    {"output_dir": "out/a\u0000b"},
    {"schedule": {"kind": "fixed", "skip": 4, "bogus": 1}},
    {"schedule": {"kind": "fixed", "skip": 4, "seed": 3}},
    {"schedule": {"kind": "random-uniform", "support": [1, 2], "skip": 3}},
    {"schedule": {"kind": "poisson"}},
    {"em": {"max_iterations": 10, "bogus": 1}},
    {"grid": {"step": 0.02, "extra": True}},
    {"starts": {"heuristic_count": 3, "extra": 1}},
    {"starts": "many"},
    {"starts": []},
    {"starts": {"heuristic_count": 0}},
    {"true_params": []},
    {"true_params": [{"alpha": 0.5}]},
    {"true_params": [{"alpha": 1.5, "beta": 0.5}]},
    {"observed_slots": 1},
    {"observed_slots": True},
    {"observed_slots": "many"},
    {"master_seed": -1},
    {"master_seed": 2.5},
    {"em": {"record_trajectory": 1}},
    {"grid": {"bounds": [0.0, 0.5, 1.0]}},
    {"output_dir": 7},
    {"write_sequence": "yes"},
    {"em": {"param_tolerance": float("inf")}},
    {"em": {"param_tolerance": float("nan")}},
    {"em": {"param_tolerance": 10**400}},
    {"schedule": {"kind": "fixed", "skip": 100_000_000}},
    {"observed_slots": 10**9},
    {"em": {"max_iterations": 5_499_750}},
    {"grid": {"step": 1e-5}},
    {"grid": {"step": 0.0002}},
    {"grid": {"step": 5e-324}},
    {"starts": {"heuristic_count": 354_823}},
    {"schedule": {"kind": "random-uniform", "support": [1, 2], "seed": -1}},
    {"schedule": {"kind": "random-uniform", "support": [1, 2], "seed": None}},
    {"grid": {"step": 0.03}},
    {"em": None},
    # 1000 step lengths, so up to 4000 signatures a kernel call: hours of work
    {
        "schedule": {"kind": "random-uniform", "support": list(range(1, 1001))},
        "starts": {"heuristic_count": 100},
        "em": {"max_iterations": 100_000},
    },
    # 1 - 1e-17 rounds to 1.0: clamped starts and grid points would sit on the boundary
    {"em": {"clamp_epsilon": 1e-17}},
]

# each entry, merged into small_config, stays within the work budget: its
# gap-kernel work in signature evaluations, the default 51 x 51 grid counted
# where no grid is given, is noted (the limit is 44 008 404)
WITHIN_BUDGET = [
    {"em": {"max_iterations": 100_001}},  # 810 420
    {"grid": {"step": 0.0005}},  # 16 016 252
    {"starts": {"heuristic_count": 101}},  # 22 928
    {"em": {"max_iterations": 5_499_749}},  # 44 008 404
    {"starts": {"heuristic_count": 354_822}},  # 44 008 332
]

# over-budget runs of the presets: (command, preset, --paper-scale, file overrides)
OVER_BUDGET_PRESETS = {
    # 10 000 starts x (1e5 + 1) kernel calls x 4 signatures
    "table1-10k-starts": (
        "table1",
        "paper-table1",
        True,
        {
            "starts": [{"alpha": 0.5, "beta": 0.5}] * 10_000,
            "em": {"max_iterations": 100_000},
        },
    ),
    # 10 000 channels x 7e5 slots
    "fig5-10k-channels": (
        "multichannel",
        "paper-fig5",
        False,
        {
            "true_params": [{"alpha": 0.8, "beta": 0.3}] * 10_000,
            "starts": [{"alpha": 0.6, "beta": 0.5}] * 10_000,
        },
    ),
    # 10 channels x 6 999 994 slots
    "fig5-paper-10-channels": (
        "multichannel",
        "paper-fig5",
        True,
        {
            "true_params": [{"alpha": 0.8, "beta": 0.3}] * 10,
            "starts": [{"alpha": 0.6, "beta": 0.5}] * 10,
        },
    ),
}


class TestGridSpec:
    def test_default_grid_has_51_points_per_axis(self):
        values = GridSpec().values()
        assert len(values) == 51
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert values[1] == pytest.approx(0.02)

    def test_bounds_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(bounds=(0.5, 0.2))
        with pytest.raises(ConfigError):
            GridSpec(bounds=(-0.1, 1.0))
        with pytest.raises(ConfigError):
            GridSpec(step=0.0)

    def test_non_tiling_step(self):
        with pytest.raises(ConfigError, match="tile"):
            GridSpec(step=0.03, bounds=(0.0, 1.0)).values()

    def test_sub_square_grid(self):
        values = GridSpec(step=0.1, bounds=(0.2, 0.6)).values()
        assert values == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6])


class TestParseConfig:
    def test_round_trip_types(self, tmp_path):
        config = parse_config(small_config(tmp_path))
        assert config.true_params == (ChannelParams(0.8, 0.3),)
        assert config.schedule == ObservationSchedule.fixed(4)
        assert config.observed_slots == 2000
        assert config.starts == (ChannelParams(0.6, 0.5), ChannelParams(0.2, 0.8))
        assert config.em.max_iterations == 30
        assert config.em.record_trajectory is True
        assert config.master_seed == 7
        assert config.output_dir == tmp_path
        assert config.grid == GridSpec()
        assert config.write_sequence is False

    def test_single_params_object_allowed(self, tmp_path):
        data = small_config(tmp_path, true_params={"alpha": 0.5, "beta": 0.5})
        assert parse_config(data).true_params == (ChannelParams(0.5, 0.5),)

    def test_heuristic_starts(self, tmp_path):
        data = small_config(tmp_path, starts={"heuristic_count": 4})
        assert parse_config(data).starts == 4

    def test_grid_section(self, tmp_path):
        data = small_config(tmp_path, grid={"step": 0.5, "bounds": [0.0, 1.0]})
        assert parse_config(data).grid == GridSpec(step=0.5)

    def test_work_caps_are_inclusive(self, tmp_path):
        data = small_config(
            tmp_path,
            em={"max_iterations": 100_000},
            grid={"step": 0.001},
            starts={"heuristic_count": 100},
        )
        config = parse_config(data)
        assert config.em.max_iterations == 100_000
        assert len(config.grid.values()) == 1001
        assert config.starts == 100

    @pytest.mark.parametrize("mutation", WITHIN_BUDGET)
    def test_within_budget_validates(self, tmp_path, mutation):
        data = small_config(tmp_path)
        data.update(mutation)
        parse_config(data)

    @pytest.mark.parametrize("iterations", [5_499_749, 5_499_750])
    def test_missing_grid_is_budgeted_as_the_default(self, tmp_path, iterations):
        # se-grid evaluates GridSpec() when no grid is given, so the budget
        # counts its 2601 points too; these two iterations straddle the limit
        implicit = small_config(tmp_path, em={"max_iterations": iterations})
        explicit = dict(implicit, grid={"step": 0.02, "bounds": [0.0, 1.0]})
        outcomes = []
        for data in (implicit, explicit):
            try:
                outcomes.append(parse_config(data))
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "mutation",
        [{"grid": {"step": 1e-300}}, {"observed_slots": 10**400}],
    )
    def test_budget_error_is_short(self, tmp_path, mutation):
        # estimates of 601 and 401 digits print in scientific form
        data = small_config(tmp_path)
        data.update(mutation)
        with pytest.raises(ConfigError, match=r"needs up to \d\.\d{4}e\+\d+ ") as info:
            parse_config(data)
        assert len(str(info.value)) < 80

    @pytest.mark.parametrize("name", OVER_BUDGET_PRESETS)
    def test_over_budget_presets_rejected(self, name):
        _, preset, paper_scale, overrides = OVER_BUDGET_PRESETS[name]
        data = {**preset_config(preset, paper_scale=paper_scale), **overrides}
        with pytest.raises(ConfigError, match="plan needs up to"):
            parse_config(data)

    @pytest.mark.parametrize("mutation", INVALID_MUTATIONS)
    def test_invalid_configs_rejected(self, tmp_path, mutation):
        data = small_config(tmp_path)
        data.update(mutation)
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_missing_required_field(self, tmp_path):
        data = small_config(tmp_path)
        del data["master_seed"]
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(data)

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_unknown_field_names_reported(self, tmp_path):
        data = small_config(tmp_path, zexplicit_typo=1)
        with pytest.raises(ConfigError, match="zexplicit_typo"):
            parse_config(data)


class TestConfigHash:
    def test_key_order_independent(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_format(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 12
        assert all(c in "0123456789abcdef" for c in digest)


class TestPresets:
    @pytest.mark.parametrize(
        "name, paper_scale",
        [pytest.param(n, s, id=n + "-paper" * s) for n in PRESET_NAMES for s in (False, True)],
    )
    def test_presets_parse(self, name, paper_scale):
        config = parse_config(preset_config(name, paper_scale=paper_scale))
        assert config.observed_slots == (1_000_000 if paper_scale else 100_000)
        assert isinstance(config, ExperimentConfig)

    def test_paper_scale(self):
        config = parse_config(preset_config("paper-fig3", paper_scale=True))
        assert config.observed_slots == 1_000_000

    def test_deep_copy_isolation(self):
        first = preset_config("paper-fig5")
        first["true_params"][0]["alpha"] = 0.123
        second = preset_config("paper-fig5")
        assert second["true_params"][0]["alpha"] == 0.8

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            preset_config("paper-fig9")

    def test_study_presets_shape(self):
        fig3 = parse_config(preset_config("paper-fig3"))
        assert len(fig3.starts) == 8
        assert fig3.schedule == ObservationSchedule.fixed(4)
        fig4 = parse_config(preset_config("paper-fig4"))
        assert fig4.grid == GridSpec(step=0.02, bounds=(0.0, 1.0))
        fig5 = parse_config(preset_config("paper-fig5"))
        assert len(fig5.true_params) == 5
        assert fig5.schedule.kind == "random-uniform"
        assert fig5.schedule.support == (1, 2, 3, 4, 5, 6)
        assert fig5.schedule.seed is None
        assert fig5.em.max_iterations == 1000


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(15, 0, 3) == derive_seed(15, 0, 3)

    def test_streams_and_indices_distinct(self):
        seeds = {
            derive_seed(m, s, i)
            for m in (0, 1, 15)
            for s in (0, 1)
            for i in range(4)
        }
        assert len(seeds) == 24

    def test_range(self):
        value = derive_seed(2**31, 1, 2)
        assert 0 <= value < 2**64


class TestRealizeDataset:
    def test_fixed_schedule_times(self):
        dataset, sequence = realize_dataset(
            ChannelParams(0.8, 0.3), ObservationSchedule.fixed(4), 10, master_seed=1
        )
        assert dataset.times.tolist() == list(range(1, 47, 5))
        assert len(sequence) == 46
        assert (dataset.states == sequence[dataset.times - 1]).all()

    def test_deterministic(self):
        args = (ChannelParams(0.4, 0.2), ObservationSchedule.fixed(2), 50)
        d1, s1 = realize_dataset(*args, master_seed=9)
        d2, s2 = realize_dataset(*args, master_seed=9)
        assert (d1.states == d2.states).all()
        assert (s1 == s2).all()

    def test_channels_use_distinct_streams(self):
        args = (ChannelParams(0.5, 0.5), ObservationSchedule.fixed(0), 2000)
        d0, _ = realize_dataset(*args, master_seed=9, channel_index=0)
        d1, _ = realize_dataset(*args, master_seed=9, channel_index=1)
        assert (d0.states != d1.states).any()

    def test_random_schedule_seeded_from_master(self):
        schedule = ObservationSchedule.random_uniform((1, 2, 3))
        d1, _ = realize_dataset(ChannelParams(0.5, 0.5), schedule, 100, master_seed=3)
        d2, _ = realize_dataset(ChannelParams(0.5, 0.5), schedule, 100, master_seed=3)
        d3, _ = realize_dataset(ChannelParams(0.5, 0.5), schedule, 100, master_seed=4)
        assert (d1.times == d2.times).all()
        assert (d1.times != d3.times).any()


def _desk_preset_channels():
    """(name, index) of every channel of every preset, at desk scale."""
    return [
        (name, index)
        for name in PRESET_NAMES
        for index in range(len(preset_config(name)["true_params"]))
    ]


def _first_round_ends(truth: ChannelParams, length: int, seed: int) -> np.ndarray:
    """Uncut run ends of the first round of sojourns simulate_chain draws."""
    rng = np.random.default_rng(seed)
    first = 0 if rng.random() < utilization(truth) else 1
    exits = truth.as_tuple()
    p_cur, p_oth = exits[first], exits[1 - first]
    n_pairs = int(length / (1.0 / p_cur + 1.0 / p_oth)) + 8
    lens = np.empty(2 * n_pairs, dtype=np.int64)
    lens[0::2] = rng.geometric(p_cur, size=n_pairs)
    lens[1::2] = rng.geometric(p_oth, size=n_pairs)
    return np.cumsum(lens)


class TestRealizeHistogram:
    """The fit path's streamed histogram against realize_dataset's dataset."""

    @staticmethod
    def assert_streams_the_dataset(truth, schedule, count, seed, index=0):
        dataset, _ = realize_dataset(truth, schedule, count, seed, channel_index=index)
        histogram = realize_histogram(truth, schedule, count, seed, channel_index=index)
        for got, want in zip(histogram.gap_histogram, dataset.gap_histogram):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)  # values and row order
        for data in (histogram, dataset):
            assert data.first_state == dataset.states[0]
            assert data.num_observations == len(dataset.times) == count
            assert data.num_transitions == dataset.times[-1] - 1
            assert data.occupied_fraction == float(np.mean(dataset.states == 0))

    @pytest.mark.parametrize("name, index", _desk_preset_channels())
    def test_every_preset_channel(self, name, index):
        config = parse_config(preset_config(name))
        self.assert_streams_the_dataset(
            config.true_params[index],
            config.schedule,
            config.observed_slots,
            config.master_seed,
            index,
        )

    @pytest.mark.parametrize(
        "schedule, count",
        [
            (ObservationSchedule.fixed(0), 20_000),
            # duplicate and unsorted support entries
            (ObservationSchedule.random_uniform((5, 2, 2, 9, 1, 5)), 20_000),
            # keys far past the number of gaps: counted by np.unique
            (ObservationSchedule.random_uniform((1, 100_000)), 20),
            # observation counts on and just past the histogram's block edges
            (ObservationSchedule.fixed(1), 2**16),
            (ObservationSchedule.fixed(1), 2**16 + 1),
            # a last block of one gap: its sparse key is merged in
            (ObservationSchedule.fixed(1), 2**16 + 2),
            (ObservationSchedule.random_uniform((1, 2, 3)), 2 * 2**16),
            (ObservationSchedule.random_uniform((1, 2, 3)), 2 * 2**16 + 1),
        ],
    )
    @pytest.mark.parametrize(
        "pair", [(0.002, 0.003), (1.0, 1.0), (0.9, 0.6), (1e-300, 0.909)]
    )
    def test_schedules_and_truths(self, schedule, count, pair):
        self.assert_streams_the_dataset(ChannelParams(*pair), schedule, count, 21)

    @pytest.mark.parametrize("short", [0, 1])
    def test_chain_ending_on_a_run_end(self, short):
        # skip 0 observes every slot, so the chain's last slot is observed;
        # it ends exactly on a run end, or one slot before one, in the third
        # run block, after two of 23 592 pairs
        truth, seed = ChannelParams(0.9, 0.6), derive_seed(10, 0)
        count = next(
            n
            for n in range(150_000, 150_100)
            if n + short in _first_round_ends(truth, n, seed)
        )
        self.assert_streams_the_dataset(truth, ObservationSchedule.fixed(0), count, 10)

    def test_chain_ending_on_a_block_edge(self):
        # at this seed and count the first round's first run block, 23 592
        # full pairs, ends exactly on the chain's last slot, which skip 0
        # observes: the block is used whole and no second block is drawn
        truth, count = ChannelParams(0.9, 0.6), 65_594
        blocks = [len(lens) for _, lens in run_blocks(truth, count, derive_seed(1, 0))]
        assert blocks == [2 * 23_592]
        self.assert_streams_the_dataset(truth, ObservationSchedule.fixed(0), count, 1)

    def test_fit_path_memory(self):
        # fig5's fastest channel at paper scale: the schedule's picks, the
        # kept first-state sojourns and one block of each stage (5.0 MiB);
        # times, states, the sequence and one key per gap traced 24.9 MiB
        schedule = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6))
        np.random.default_rng(0)  # numpy imports np.random on first use: not traced
        tracemalloc.start()
        try:
            realize_histogram(ChannelParams(0.9, 0.6), schedule, 10**6, 20, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_long_fixed_skip_allocates_no_table(self):
        # keys near 4e7 over 2e7 slots: a count table over the keys (320 MB)
        # or the slots (19 MiB) would show; run blocks of about 2**16 slots do not
        schedule = ObservationSchedule.fixed(10**7)
        np.random.default_rng(0)  # numpy imports np.random on first use: not traced
        tracemalloc.start()
        try:
            histogram = realize_histogram(ChannelParams(0.002, 0.003), schedule, 3, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(histogram.signatures[:, 2].tolist()) == {10**7}
        assert peak < 4 * 2**20

    def test_merging_blocks_imports_no_numpy_ma(self):
        # 69 999 gaps make two blocks, merged once; a bare np.unique (as in
        # np.union1d) imports numpy.ma on numpy 2.x, 14-26 ms once per
        # process, while numpy 1.x imports it with numpy: so compare the
        # modules before and after the call, in a fresh interpreter
        code = (
            "import sys\n"
            "from chan_em import ChannelParams\n"
            "from chan_em.harness import realize_histogram\n"
            "from chan_em.observation import ObservationSchedule\n"
            "before = 'numpy.ma' in sys.modules\n"
            "schedule = ObservationSchedule.random_uniform((1, 2, 3, 4, 5, 6))\n"
            "realize_histogram(ChannelParams(0.9, 0.6), schedule, 70_000, 20)\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(experiments.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        before, after = run.stdout.split()
        assert after == before


class TestCmdSimulate:
    def test_fixed_schedule_file(self, tmp_path):
        config = parse_config(small_config(tmp_path, observed_slots=10))
        written = cmd_simulate(config, {"any": "resolved"})
        assert written == [tmp_path / "observed.csv"]
        rows = data_rows(written[0])
        assert len(rows) == 10
        assert [int(r[0]) for r in rows] == list(range(1, 47, 5))
        assert header_of(written[0]) == "slot_index,state"

    def test_metadata_block(self, tmp_path):
        resolved = small_config(tmp_path, observed_slots=10)
        config = parse_config(resolved)
        path = cmd_simulate(config, resolved)[0]
        meta = meta_of(path)
        assert meta["tool"] == "chan-em"
        assert meta["command"] == "simulate"
        assert meta["master_seed"] == "7"
        assert meta["config_hash"] == config_hash(resolved)
        assert len(meta["config_hash"]) == 12

    def test_rerun_byte_identical(self, tmp_path):
        resolved = small_config(tmp_path, observed_slots=50)
        config = parse_config(resolved)
        first = cmd_simulate(config, resolved)[0].read_bytes()
        second = cmd_simulate(config, resolved)[0].read_bytes()
        assert first == second

    # 65 537 rows put sequence.csv across the writer's 65 536-row block
    @pytest.mark.parametrize("observed_slots", [40, 65_537])
    def test_zero_skip_observes_everything(self, tmp_path, observed_slots):
        resolved = small_config(
            tmp_path,
            observed_slots=observed_slots,
            schedule={"kind": "fixed", "skip": 0},
            write_sequence=True,
        )
        config = parse_config(resolved)
        observed, seq_path = cmd_simulate(config, resolved)
        obs_rows = data_rows(observed)
        seq_rows = data_rows(seq_path)
        assert len(obs_rows) == len(seq_rows) == observed_slots
        assert obs_rows == seq_rows

    def test_hidden_length_histogram_matches_file(self, tmp_path, capsys):
        # dense keys (gap_histogram counts them with np.bincount), then keys far
        # past the number of gaps (np.unique)
        for name, support, observed_slots in (
            ("dense", [1, 2, 10], 500),
            ("sparse", [1, 100000], 20),
        ):
            schedule = {"kind": "random-uniform", "support": support}
            config = parse_config(
                small_config(
                    tmp_path / name, observed_slots=observed_slots, schedule=schedule
                )
            )
            path = cmd_simulate(config, {})[0]
            printed = capsys.readouterr().out.split("hidden-length histogram ", 1)[1]
            times = ObservedDataset.load(path).times
            hidden = Counter((np.diff(times) - 1).tolist())
            assert (4 * max(hidden) >= len(times) - 1) == (name == "sparse")
            # keys in numeric order, so 2 comes before 10
            assert printed == json.dumps({h: hidden[h] for h in sorted(hidden)}) + "\n"

    def test_output_round_trips_through_load(self, tmp_path):
        config = parse_config(small_config(tmp_path, observed_slots=25))
        path = cmd_simulate(config, {})[0]
        loaded = ObservedDataset.load(path)
        assert loaded.num_observations == 25


class TestStreamedSimulate:
    """cmd_simulate's streamed files and line against realize_dataset's arrays."""

    @staticmethod
    def assert_writes_the_dataset(tmp_path, capsys, write_sequence, **overrides):
        resolved = small_config(
            tmp_path / "out", write_sequence=write_sequence, **overrides
        )
        config = parse_config(resolved)
        written = cmd_simulate(config, resolved)
        printed = capsys.readouterr().out
        dataset, sequence = realize_dataset(
            config.single_channel(),
            config.schedule,
            config.observed_slots,
            config.master_seed,
        )
        # the oracle writes explicit slot indices, not the streamed span writer
        meta = experiments._meta(config, resolved, "simulate")
        oracle = [tmp_path / "observed.csv"]
        observed_meta = {**meta, "total_slots": len(sequence)}
        dataset.save(oracle[0], observed_meta)
        if write_sequence:
            oracle.append(tmp_path / "sequence.csv")
            with open_slot_states(oracle[1], meta) as fh:
                _write_rows(fh, np.arange(1, len(sequence) + 1), sequence)
        assert [path.name for path in written] == [path.name for path in oracle]
        for got, want in zip(written, oracle):
            assert got.read_bytes() == want.read_bytes()
        hist: Counter = Counter()
        for (_, _, hidden), count in zip(*(a.tolist() for a in dataset.gap_histogram)):
            hist[hidden] += count
        assert printed == (
            f"simulate: {dataset.num_observations} observations over "
            f"{len(sequence)} slots, hidden-length histogram "
            f"{json.dumps(hist, sort_keys=True)}\n"
        )

    # the sequence and the observations end on and next to the edges of the
    # 9 999-slot head, of the 65 536-row blocks and of the 10**5-slot spans
    @pytest.mark.parametrize(
        "count",
        [2, 9_999, 10_000, 10_001, 65_537, 65_538, 99_999, 100_000, 100_001],
    )
    @pytest.mark.parametrize("write_sequence", [True, False])
    def test_skip_zero(self, tmp_path, capsys, count, write_sequence):
        self.assert_writes_the_dataset(
            tmp_path,
            capsys,
            write_sequence,
            schedule={"kind": "fixed", "skip": 0},
            observed_slots=count,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            # runs longer than a span, in blocks of one pair
            {"true_params": [{"alpha": 1e-6, "beta": 1e-6}], "observed_slots": 300_000},
            {"true_params": [{"alpha": 1.0, "beta": 1.0}], "observed_slots": 30_000},
            {"true_params": [{"alpha": 1e-300, "beta": 0.909}]},
            # duplicate and unsorted support entries
            {"schedule": {"kind": "random-uniform", "support": [5, 2, 2, 9, 1, 5]}},
        ],
        ids=["long-runs", "ones", "tiny-alpha", "duplicates"],
    )
    @pytest.mark.parametrize("write_sequence", [True, False])
    def test_truths_and_schedules(self, tmp_path, capsys, overrides, write_sequence):
        self.assert_writes_the_dataset(tmp_path, capsys, write_sequence, **overrides)

    def test_run_block_ending_on_a_span_edge(self, tmp_path, capsys):
        # at this seed the first round's blocks of three pairs end, one of
        # them, on slot 99 999: the next block's rows start a span
        truth, seed = {"alpha": 1e-4, "beta": 1e-4}, 141_048
        runs = run_blocks(ChannelParams(1e-4, 1e-4), 300_001, derive_seed(seed, 0))
        ends = np.cumsum([int(lens.sum()) for _, lens in runs])
        assert 99_999 in ends.tolist()
        self.assert_writes_the_dataset(
            tmp_path,
            capsys,
            True,
            true_params=[truth],
            schedule={"kind": "fixed", "skip": 99},
            observed_slots=3_001,
            master_seed=seed,
        )

    @staticmethod
    def traced_peak(tmp_path, **overrides) -> int:
        resolved = small_config(tmp_path, write_sequence=True, **overrides)
        config = parse_config(resolved)
        # numpy imports np.random and np.ma (np.unique) on first use: not traced
        np.random.default_rng(0)
        np.unique(np.zeros(1))
        tracemalloc.start()
        try:
            cmd_simulate(config, resolved)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_paper_fig3_memory(self, tmp_path, capsys):
        # 1e6 observations over 5e6 slots, every slot written: the sampler's
        # kept sojourns (1.1 MB), a span's rows and a block of each stage
        # trace 5.3 MiB; the sequence, times and their copy traced 22.9 MiB
        count = preset_config("paper-fig3", paper_scale=True)["observed_slots"]
        assert self.traced_peak(tmp_path, observed_slots=count) < 8 * 2**20
        assert "over 4999996 slots" in capsys.readouterr().out

    def test_long_runs_memory(self, tmp_path, capsys):
        # one block of two runs covers the whole chain of 4.5e6 slots, its
        # longest run 4.0e6: written span by span, never expanded (2.5 MiB)
        truth, seed = ChannelParams(1e-6, 1e-6), 6
        blocks = list(run_blocks(truth, 4_499_901, derive_seed(seed, 0)))
        assert len(blocks) == 1 and int(blocks[0][1].max()) > 4 * 10**6
        peak = self.traced_peak(
            tmp_path,
            true_params=[{"alpha": 1e-6, "beta": 1e-6}],
            schedule={"kind": "fixed", "skip": 99},
            observed_slots=45_000,
            master_seed=seed,
        )
        assert peak < 3 * 2**20
        assert "over 4499901 slots" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trajectory_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("traj")
    resolved = small_config(out)
    config = parse_config(resolved)
    written = cmd_trajectories(config, resolved)
    return out, written


class TestCmdTrajectories:
    def test_one_csv_per_start_plus_summary(self, trajectory_outputs):
        out, written = trajectory_outputs
        assert written == [
            out / "trajectory_00.csv",
            out / "trajectory_01.csv",
            out / "summary.json",
        ]

    def test_trajectory_rows_and_header(self, trajectory_outputs):
        out, _ = trajectory_outputs
        path = out / "trajectory_00.csv"
        assert header_of(path) == "p,alpha,beta,loglik"
        rows = data_rows(path)
        assert len(rows) == 31
        assert [int(r[0]) for r in rows] == list(range(31))
        assert float(rows[0][1]) == 0.6
        assert float(rows[0][2]) == 0.5
        # every row is its recorded step, field for field, as repr
        config = parse_config(small_config(out))
        dataset = realize_dataset(
            config.single_channel(), config.schedule, config.observed_slots,
            config.master_seed,
        )[0]
        _, reports = multi_start(dataset, list(config.starts), config.em)
        for i, report in enumerate(reports):
            expected = [[repr(field) for field in step] for step in report.trajectory.steps]
            assert data_rows(out / f"trajectory_{i:02d}.csv") == expected

    def test_lines_end_in_newline_only(self, trajectory_outputs):
        _, written = trajectory_outputs
        for path in written:  # the CSV writer and the JSON writer
            assert b"\r" not in path.read_bytes()  # read_text() would hide \r\n

    def test_summary_contents(self, trajectory_outputs):
        out, _ = trajectory_outputs
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"meta", "winner_index", "estimates"}
        estimates = summary["estimates"]
        assert len(estimates) == 2
        for entry in estimates:
            assert set(entry) >= {
                "alpha_hat", "beta_hat", "start_alpha", "start_beta",
                "iterations", "se_db", "gamma_percent",
            }
            assert "trajectory" not in entry
        winner = estimates[summary["winner_index"]]
        assert winner["se_db"] == min(e["se_db"] for e in estimates)

    def test_single_start_single_iteration(self, tmp_path):
        resolved = small_config(
            tmp_path,
            starts=[{"alpha": 0.5, "beta": 0.5}],
            em={"max_iterations": 1},
        )
        config = parse_config(resolved)
        written = cmd_trajectories(config, resolved)
        rows = data_rows(written[0])
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["0", "1"]

    def test_rerun_byte_identical(self, tmp_path):
        resolved = small_config(tmp_path)
        config = parse_config(resolved)
        first = [p.read_bytes() for p in cmd_trajectories(config, resolved)]
        second = [p.read_bytes() for p in cmd_trajectories(config, resolved)]
        assert first == second


class TestCmdTable1:
    def test_header_and_single_winner(self, tmp_path):
        resolved = small_config(tmp_path)
        config = parse_config(resolved)
        path = cmd_table1(config, resolved)[0]
        assert header_of(path) == "start_alpha,start_beta,alpha_100,beta_100,se_db,winner"
        rows = data_rows(path)
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["0.6", "0.2"]
        assert sum(int(r[5]) for r in rows) == 1

    def test_lines_end_in_newline_only(self, tmp_path):
        resolved = small_config(tmp_path)
        path = cmd_table1(parse_config(resolved), resolved)[0]
        assert b"\r" not in path.read_bytes()  # read_text() would hide \r\n

    def test_identical_starts_give_identical_rows(self, tmp_path):
        start = {"alpha": 0.4, "beta": 0.6}
        resolved = small_config(tmp_path, starts=[start, start, start])
        config = parse_config(resolved)
        rows = data_rows(cmd_table1(config, resolved)[0])
        assert len(rows) == 3
        assert rows[0][:5] == rows[1][:5] == rows[2][:5]
        assert [r[5] for r in rows] == ["1", "0", "0"]

    def test_heuristic_starts_accepted(self, tmp_path):
        resolved = small_config(tmp_path, starts={"heuristic_count": 3})
        config = parse_config(resolved)
        rows = data_rows(cmd_table1(config, resolved)[0])
        assert len(rows) == 3


@pytest.fixture(scope="module")
def grid_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    resolved = small_config(
        out,
        observed_slots=100_000,
        master_seed=15,
        grid={"step": 0.02, "bounds": [0.0, 1.0]},
    )
    config = parse_config(resolved)
    path = cmd_se_grid(config, resolved)[0]
    assert header_of(path) == "alpha,beta,se_db"
    return [(float(a), float(b), float(se)) for a, b, se in data_rows(path)]


class TestCmdSeGrid:
    def test_cardinality(self, grid_rows):
        assert len(grid_rows) == 2601
        alphas = sorted({r[0] for r in grid_rows})
        assert len(alphas) == 51
        assert alphas[0] == 0.0 and alphas[-1] == 1.0

    def test_global_minimum_at_truth_grid_point(self, grid_rows):
        best = min(grid_rows, key=lambda r: r[2])
        assert (best[0], best[1]) == (0.8, 0.3)

    def test_slope_line_points_beat_off_line_neighbors(self, grid_rows):
        se = {(round(a, 2), round(b, 2)): v for a, b, v in grid_rows}
        wins = 0
        line_points = [(round(0.16 * k, 2), round(0.06 * k, 2)) for k in range(1, 7)]
        for alpha, beta in line_points:
            on = se[(alpha, beta)]
            above = se[(alpha, round(beta + 0.02, 2))]
            below = se[(alpha, round(beta - 0.02, 2))]
            if on < above and on < below:
                wins += 1
        assert wins >= 5, f"line-minimum property held at {wins}/6 points"

    def test_truth_scored_once(self, tmp_path, kernel_calls):
        resolved = small_config(tmp_path, observed_slots=200, grid={"step": 0.25})
        config = parse_config(resolved)
        path = cmd_se_grid(config, resolved)[0]
        assert len(data_rows(path)) == 25
        # one kernel point per grid point, plus the truth's, evaluated first
        assert len(kernel_calls) == 26
        assert kernel_calls[0] == config.single_channel().clamped(config.em.clamp_epsilon)

    def test_grid_in_row_limited_kernel_calls(self, tmp_path, monkeypatch):
        # one kernel call per MAX_BATCH_ROWS point-signature rows, and the
        # values of one call per point
        from chan_em import em, likelihood
        from chan_em.likelihood import geometric_mean_likelihood, se_db_between

        resolved = small_config(tmp_path, observed_slots=200, grid={"step": 0.25})
        config = parse_config(resolved)
        dataset = experiments._channel_dataset(config)
        signatures = len(dataset.gap_histogram[0])
        calls = []
        original = likelihood.gap_posteriors

        def counted(data, points, datasets=None):
            calls.append(len(points))
            return original(data, points, datasets)

        for module in (likelihood, em, experiments):
            if "gap_posteriors" in vars(module):
                monkeypatch.setattr(module, "gap_posteriors", counted)
        monkeypatch.setattr(experiments, "MAX_BATCH_ROWS", 7 * signatures)
        rows = data_rows(cmd_se_grid(config, resolved)[0])
        assert calls == [1, 7, 7, 7, 4]
        eps = config.em.clamp_epsilon
        reference = geometric_mean_likelihood(dataset, config.single_channel())
        for alpha, beta, se_db in rows:
            point = ChannelParams(float(alpha), float(beta)).clamped(eps)
            value = geometric_mean_likelihood(dataset, point)
            assert float(se_db) == se_db_between(value, reference)

    def test_grid_value_rounded_past_one_is_clamped(self, tmp_path):
        # lo + 7 * step lands on 1.0000000000000002, inside the grid's tiling
        # tolerance; that point is clamped to 1 - eps like 1.0 itself
        grid = {"step": 0.1285714285714286, "bounds": [0.1, 1.0]}
        resolved = small_config(tmp_path, observed_slots=200, grid=grid)
        config = parse_config(resolved)
        assert config.grid.values()[-1] > 1.0
        rows = data_rows(cmd_se_grid(config, resolved)[0])
        assert len(rows) == 64
        assert rows[-1][:2] == ["1.0000000000000002"] * 2


@pytest.fixture(scope="module")
def multichannel_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("multi")
    resolved = small_config(
        out,
        true_params=[
            {"alpha": 0.8, "beta": 0.3},
            {"alpha": 0.2, "beta": 0.9},
        ],
        starts=[
            {"alpha": 0.6, "beta": 0.5},
            {"alpha": 0.4, "beta": 0.8},
        ],
        schedule={"kind": "random-uniform", "support": [1, 2, 3]},
        observed_slots=5000,
        em={"max_iterations": 50, "record_trajectory": True},
    )
    config = parse_config(resolved)
    return out, cmd_multichannel(config, resolved), config


class TestCmdMultichannel:
    def test_files(self, multichannel_outputs):
        out, written, _ = multichannel_outputs
        assert written == [
            out / "gamma_channel_0.csv",
            out / "gamma_channel_1.csv",
            out / "multichannel_summary.json",
        ]

    def test_gamma_trace_shape_and_decrease(self, multichannel_outputs):
        out, _, config = multichannel_outputs
        for index in (0, 1):
            path = out / f"gamma_channel_{index}.csv"
            assert header_of(path) == "p,gamma_percent"
            rows = data_rows(path)
            assert len(rows) == 51
            first, last = float(rows[0][1]), float(rows[-1][1])
            assert last < first
            assert last < 10.0
            # every row is the error of its recorded step, bit for bit
            truth = config.true_params[index]
            dataset = realize_dataset(
                truth, config.schedule, config.observed_slots, config.master_seed,
                channel_index=index,
            )[0]
            report = run_em(dataset, config.starts[index], config.em)
            assert rows == [
                [
                    repr(step.iteration),
                    repr(relative_error(ChannelParams(step.alpha, step.beta), truth)),
                ]
                for step in report.trajectory.steps
            ]

    def test_summary_lists_channels(self, multichannel_outputs):
        out, _, _ = multichannel_outputs
        payload = json.loads((out / "multichannel_summary.json").read_text())
        assert [c["index"] for c in payload["channels"]] == [0, 1]
        for channel in payload["channels"]:
            assert channel["gamma_percent"] >= 0.0
            assert "trajectory" not in channel

    def test_start_channel_length_mismatch(self, tmp_path):
        resolved = small_config(
            tmp_path,
            true_params=[{"alpha": 0.8, "beta": 0.3}, {"alpha": 0.2, "beta": 0.9}],
            starts=[{"alpha": 0.6, "beta": 0.5}],
        )
        config = parse_config(resolved)
        with pytest.raises(ConfigError, match="one to one"):
            cmd_multichannel(config, resolved)

    def test_realizes_one_channel_at_a_time(self, tmp_path, monkeypatch):
        # the channels' histograms are all kept for the one lockstep fit, but
        # a weakref to every realization so far (its schedule draw and run
        # blocks) must be dead by the time the next channel is realized, and
        # by the time the command returns
        alive = []
        real = experiments.realize_runs

        def tracked(*args, **kwargs):
            held = [ref for ref in alive if ref() is not None]
            assert held == [], f"{len(held)} earlier realization part(s) alive"
            runs, draw = real(*args, **kwargs)
            alive.extend((weakref.ref(runs), weakref.ref(draw)))
            return runs, draw

        monkeypatch.setattr(experiments, "realize_runs", tracked)
        channels = [{"alpha": 0.8, "beta": 0.3}, {"alpha": 0.2, "beta": 0.9}] * 2
        resolved = small_config(
            tmp_path,
            true_params=channels,
            starts=[{"alpha": 0.6, "beta": 0.5}] * len(channels),
            em={"max_iterations": 5, "record_trajectory": True},
        )
        cmd_multichannel(parse_config(resolved), resolved)
        assert len(alive) == 2 * len(channels)
        assert all(ref() is None for ref in alive)


# channels whose data have different signature tables (24 rows and 6)
MIXED_TABLES = [{"alpha": 0.8, "beta": 0.3}, {"alpha": 1e-4, "beta": 1e-4}]


def _lockstep_cases(tmp_path):
    """(label, resolved config) of every channel lockstep case."""
    fig5 = preset_config("paper-fig5")
    return {
        "fig5-desk": {**fig5, "output_dir": str(tmp_path)},
        "mixed-tables": small_config(
            tmp_path,
            true_params=MIXED_TABLES,
            schedule=fig5["schedule"],
            starts=[{"alpha": 0.6, "beta": 0.5}] * 2,
        ),
        "heuristic": small_config(
            tmp_path,
            true_params=fig5["true_params"],
            schedule=fig5["schedule"],
            starts={"heuristic_count": 1},
        ),
        # the channels stop at different iterates
        "tolerance": {
            **fig5,
            "output_dir": str(tmp_path),
            "observed_slots": 5000,
            "em": {**fig5["em"], "param_tolerance": 1e-6},
        },
    }


class TestChannelLockstep:
    """multichannel and rank fit all channels in one lockstep, each as alone."""

    @pytest.mark.parametrize("command", [cmd_multichannel, cmd_rank])
    @pytest.mark.parametrize(
        "case", ["fig5-desk", "mixed-tables", "heuristic", "tolerance"]
    )
    def test_each_channel_equals_its_fit_alone(
        self, tmp_path, monkeypatch, command, case
    ):
        resolved = _lockstep_cases(tmp_path)[case]
        config = parse_config(resolved)
        fitted = []
        real = experiments.run_em_each

        def recorded(datasets, starts, em_config):
            outcomes = real(datasets, starts, em_config)
            fitted.append((datasets, starts, em_config, outcomes))
            return outcomes

        monkeypatch.setattr(experiments, "run_em_each", recorded)
        command(config, resolved)
        ((datasets, starts, em_config, outcomes),) = fitted
        assert len(outcomes) == len(config.true_params)
        for index, (dataset, start, report) in enumerate(
            zip(datasets, starts, outcomes)
        ):
            histogram = realize_histogram(
                config.true_params[index],
                config.schedule,
                config.observed_slots,
                config.master_seed,
                channel_index=index,
            )
            assert np.array_equal(histogram.counts, dataset.counts)
            if isinstance(config.starts, int):
                eps = em_config.clamp_epsilon
                assert start == heuristic_starts(histogram, 1, eps)[0]
            else:
                assert start == config.starts[index]
            alone = run_em(histogram, start, em_config)
            # the trajectory compares its steps and converged_at
            fields = ("estimate", "iterations_run", "log_likelihood", "trajectory")
            for field in fields:
                assert getattr(report, field) == getattr(alone, field), field
        tables = {dataset.signatures.tobytes() for dataset in datasets}
        if case == "mixed-tables":
            assert [len(d.signatures) for d in datasets] == [24, 6]
        elif case == "tolerance":
            assert len({report.iterations_run for report in outcomes}) > 1
        assert len(tables) == (2 if case == "mixed-tables" else 1)

    @pytest.mark.parametrize("command", [cmd_multichannel, cmd_rank])
    def test_one_kernel_call_per_iterate_for_a_shared_table(
        self, tmp_path, monkeypatch, command
    ):
        from chan_em import em, likelihood

        calls = []
        original = likelihood.gap_posteriors

        def counted(*args):
            calls.append(len(args[1]))  # the points
            return original(*args)

        for module in (likelihood, em):
            monkeypatch.setattr(module, "gap_posteriors", counted)
        channels = preset_config("paper-fig5")["true_params"]
        resolved = small_config(
            tmp_path,
            true_params=channels,
            schedule={"kind": "random-uniform", "support": [1, 2, 3, 4, 5, 6]},
            starts=[{"alpha": 0.6, "beta": 0.5}] * len(channels),
            em={"max_iterations": 40},
        )
        command(parse_config(resolved), resolved)
        # max_iterations + 1 lockstep calls for all channels, then one
        # one-point call per channel to score its truth
        assert calls == [len(channels)] * 41 + [1] * len(channels)

    @staticmethod
    def _agreeing_second(tmp_path: Path) -> Path:
        """A config file whose second channel's heuristic start fails."""
        resolved = small_config(
            tmp_path / "out",
            true_params=[{"alpha": 0.8, "beta": 0.3}, {"alpha": 1e-9, "beta": 0.5}],
            starts={"heuristic_count": 1},
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(resolved))
        return path

    def test_first_failing_channel_decides(self, tmp_path, capsys):
        # channel 1's observations all agree, so its heuristic start fails
        # after channel 0 is realized; channel 0 fits, and nothing is written
        path = self._agreeing_second(tmp_path)
        for command in ("multichannel", "rank"):
            assert main([command, "--config", str(path)]) == 3
            assert capsys.readouterr().err == (
                "DegenerateObservationsError: all observations agree, "
                "occupancy line undefined\n"
            )
        assert not (tmp_path / "out").exists()

    def test_earlier_channels_fit_error_comes_first(
        self, tmp_path, monkeypatch, capsys
    ):
        # every M-step fails, so channel 0's fit fails, and that error is
        # raised rather than channel 1's start error, which happens earlier
        from chan_em import em

        def failing(expected, clamp_epsilon=1e-9):
            raise InsufficientDataError("forced")

        monkeypatch.setattr(em, "m_step", failing)
        path = self._agreeing_second(tmp_path)
        assert main(["rank", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "InsufficientDataError: iteration 1: forced\n"


class TestCmdRank:
    def test_field_scenario_order(self, tmp_path):
        # complete observation, start at truth: estimates sit on the MLE,
        # so the estimated order matches the true utilization order
        resolved = small_config(
            tmp_path,
            true_params=preset_config("paper-fig5")["true_params"],
            starts=preset_config("paper-fig5")["true_params"],
            schedule={"kind": "fixed", "skip": 0},
            observed_slots=30_000,
            master_seed=15,
            em={"max_iterations": 5},
        )
        config = parse_config(resolved)
        path = cmd_rank(config, resolved)[0]
        payload = json.loads(path.read_text())
        assert payload["truth"]["ranking"] == [2, 0, 4, 3, 1]
        assert payload["ranking"] == [2, 0, 4, 3, 1]
        u_values = [c["u_hat"] for c in payload["channels"]]
        expected_u = [3.0 / 11.0, 9.0 / 11.0, 0.2, 5.0 / 12.0, 0.4]
        assert u_values == pytest.approx(expected_u, abs=0.02)
        assert payload["truth"]["u"] == pytest.approx(expected_u, abs=1e-12)

    def test_singleton(self, tmp_path):
        resolved = small_config(tmp_path, starts=[{"alpha": 0.6, "beta": 0.5}])
        config = parse_config(resolved)
        payload = json.loads(cmd_rank(config, resolved)[0].read_text())
        assert payload["ranking"] == [0]
        assert payload["close_pairs"] == []

    def test_close_pair_flagging_structure(self, tmp_path):
        # two nearly identical channels land inside each other's error band
        resolved = small_config(
            tmp_path,
            true_params=[
                {"alpha": 0.5, "beta": 0.5},
                {"alpha": 0.5, "beta": 0.5},
            ],
            starts=[
                {"alpha": 0.4, "beta": 0.4},
                {"alpha": 0.4, "beta": 0.4},
            ],
            schedule={"kind": "fixed", "skip": 1},
            observed_slots=4000,
        )
        config = parse_config(resolved)
        payload = json.loads(cmd_rank(config, resolved)[0].read_text())
        assert payload["close_pairs"], "equal channels should be flagged"
        assert sorted(payload["close_pairs"][0]) == [0, 1]


class TestFieldScenarioAccuracy:
    def test_long_run_reaches_tight_error_on_most_channels(self, tmp_path):
        # at 1e5 observations, 1000 iterations pull at least 4 of the 5
        # channels under 2.5 percent relative error
        resolved = preset_config("paper-fig5")
        resolved["output_dir"] = str(tmp_path)
        config = parse_config(resolved)
        cmd_multichannel(config, resolved)
        out = tmp_path
        finals = []
        for index in range(5):
            rows = data_rows(out / f"gamma_channel_{index}.csv")
            assert len(rows) == 1001
            finals.append(float(rows[-1][1]))
        assert sum(g < 2.5 for g in finals) >= 4, f"final gammas {finals}"


class TestCli:
    def config_file(self, tmp_path, **overrides) -> Path:
        out = tmp_path / "out"
        data = small_config(out, observed_slots=200, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_success_exit_and_wrote_lines(self, tmp_path, capsys):
        rc = main(["table1", "--config", str(self.config_file(tmp_path))])
        assert rc == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        assert (tmp_path / "out" / "table1.csv").exists()

    def test_no_source_is_config_error(self, capsys):
        assert main(["table1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_field_is_config_error(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        data = json.loads(path.read_text())
        data["bogus_knob"] = 1
        path.write_text(json.dumps(data))
        assert main(["table1", "--config", str(path)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_numerical_failure_exit(self, tmp_path, capsys):
        path = self.config_file(
            tmp_path, true_params=[{"alpha": 0.0, "beta": 0.0}]
        )
        assert main(["simulate", "--config", str(path)]) == 3
        assert "DegenerateParametersError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, exit_code",
        [
            ({"true_params": [{"alpha": 0.0, "beta": 0.0}]}, 3),  # from run_blocks
            ({"schedule": {"kind": "fixed", "skip": 10**6}}, 2),  # 2e8 slots
        ],
    )
    def test_simulate_fails_before_any_file(
        self, tmp_path, capsys, overrides, exit_code
    ):
        path = self.config_file(tmp_path, write_sequence=True, **overrides)
        assert main(["simulate", "--config", str(path)]) == exit_code
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, exit_code",
        [
            ("trajectories", 3),
            ("table1", 3),
            ("multichannel", 3),
            ("rank", 3),
            ("se-grid", 0),
            ("simulate", 0),
        ],
    )
    def test_zero_truth_fails_before_realizing(
        self, tmp_path, capsys, monkeypatch, command, exit_code
    ):
        # every command realizes its channel through realize_runs, the fits
        # by way of realize_histogram
        realized = []
        real = experiments.realize_runs

        def counted(*args, **kwargs):
            realized.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "realize_runs", counted)
        truths = [{"alpha": 0.3, "beta": 0.0}]
        if command in ("multichannel", "rank"):
            truths.insert(0, {"alpha": 0.8, "beta": 0.3})  # the zero is the second
        path = self.config_file(
            tmp_path,
            true_params=truths,
            starts=[{"alpha": 0.6, "beta": 0.5}] * len(truths),
            grid={"step": 0.25},
        )
        assert main([command, "--config", str(path)]) == exit_code
        if exit_code == 3:
            assert "DegenerateParametersError" in capsys.readouterr().err
            assert realized == []
        else:
            assert len(realized) == 1

    @pytest.mark.parametrize(
        "command",
        ["simulate", "trajectories", "table1", "se-grid", "multichannel", "rank"],
    )
    def test_tiny_truth_never_raises(self, tmp_path, capsys, command):
        # geometric draws near 2**63 at alpha = 1e-300 overflowed the
        # sampler's sums: every command exited 1 with a raw ValueError
        path = tmp_path / "config.json"
        config = small_config(
            tmp_path / "out",
            true_params=[{"alpha": 1e-300, "beta": 0.909}],
            schedule={"kind": "fixed", "skip": 50},
            observed_slots=10,
            starts=[{"alpha": 0.6, "beta": 0.5}],
            grid={"step": 0.25},
            write_sequence=True,
        )
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["multichannel", "rank"])
    @pytest.mark.parametrize("count, exit_code", [(3, 2), (1, 0)])
    def test_one_heuristic_start_per_channel(
        self, tmp_path, capsys, command, count, exit_code
    ):
        path = self.config_file(
            tmp_path,
            true_params=[{"alpha": 0.8, "beta": 0.3}, {"alpha": 0.2, "beta": 0.9}],
            starts={"heuristic_count": count},
        )
        assert main([command, "--config", str(path)]) == exit_code
        err = capsys.readouterr().err
        if exit_code == 2:
            assert "heuristic_count 3" in err
            assert "Traceback" not in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", OVER_BUDGET_PRESETS)
    def test_over_budget_preset_exits_2(self, tmp_path, capsys, name):
        command, preset, paper_scale, overrides = OVER_BUDGET_PRESETS[name]
        path = tmp_path / "override.json"
        path.write_text(json.dumps(overrides))
        out = tmp_path / "never"
        argv = [command, "--preset", preset, "--config", str(path), "--out", str(out)]
        assert main(argv + ["--paper-scale"] * paper_scale) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_io_failure_exit(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        path = self.config_file(tmp_path)
        data = json.loads(path.read_text())
        data["output_dir"] = str(blocker)
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path)]) == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000 + b"]" * 100_000, b'{"output_dir": "out/\xff"}'],
        ids=["nested-past-recursion-limit", "not-utf-8"],
    )
    def test_unparsable_config_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_stdout_failing_on_wrote_lines_exits_4(self, tmp_path, capsys, monkeypatch):
        class ClosedOnWrote(io.StringIO):
            def write(self, text: str) -> int:
                if text.startswith("wrote"):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", ClosedOnWrote())
        assert main(["simulate", "--config", str(self.config_file(tmp_path))]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["simulate", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("mutation", INVALID_MUTATIONS)
    def test_invalid_config_exits_2_without_traceback(self, tmp_path, capsys, mutation):
        path = self.config_file(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **mutation}))
        assert main(["table1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        # json raises a plain ValueError past Python's int digit limit
        path.write_text('{"master_seed": ' + "1" * 5000 + "}")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_paper_scale_needs_preset(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        assert main(["simulate", "--config", str(path), "--paper-scale"]) == 2

    def test_seed_and_out_overrides(self, tmp_path, capsys):
        path = self.config_file(tmp_path)
        override_out = tmp_path / "elsewhere"
        rc = main([
            "simulate", "--config", str(path),
            "--seed", "99", "--out", str(override_out),
        ])
        assert rc == 0
        meta = meta_of(override_out / "observed.csv")
        assert meta["master_seed"] == "99"

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = main([
            "table1", "--preset", "paper-table1", "--seed", "-1", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_preset_with_out_override(self, tmp_path, capsys):
        rc = main([
            "trajectories", "--preset", "paper-fig3", "--out", str(tmp_path / "fig3"),
        ])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "fig3").iterdir())
        assert files == ["summary.json"] + [f"trajectory_{i:02d}.csv" for i in range(8)]

    def test_config_file_overrides_preset(self, tmp_path, capsys):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"observed_slots": 500}))
        out = tmp_path / "mix"
        rc = main([
            "simulate", "--preset", "paper-fig3",
            "--config", str(path), "--out", str(out),
        ])
        assert rc == 0
        assert len(data_rows(out / "observed.csv")) == 500
