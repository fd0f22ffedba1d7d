import dataclasses
import json

import numpy as np
import pytest

from lyaq.config import (AppProfile, SystemConfig, parse_size, validate_config,
                         feasibility_check, config_from_dict,
                         load_config, save_config, three_app_config,
                         eight_app_config, desk_config, get_profile,
                         BITS_PER_KB, BITS_PER_MB)


def test_parse_size_suffixes():
    assert parse_size("170kB") == 170 * BITS_PER_KB
    assert parse_size("0.1MB") == pytest.approx(0.1 * BITS_PER_MB)
    assert parse_size("2B") == 16.0
    assert parse_size(4096) == 4096.0
    assert parse_size("12.5") == 12.5


def test_profile_from_bounds_convention():
    app = AppProfile.from_bounds(10435, 5.0, "40kB", "300kB")
    assert app.size_mean == pytest.approx((app.size_max + app.size_min) / 2)
    assert app.size_std == pytest.approx((app.size_max - app.size_min) / 4)
    assert app.size_mean == pytest.approx(170 * BITS_PER_KB)
    assert app.mean_bits_per_slot == pytest.approx(5 * 170 * BITS_PER_KB)


def test_validate_ok_for_builtin_profiles():
    for cfg in (three_app_config(), eight_app_config(), desk_config()):
        assert validate_config(cfg) == []


def test_validate_flags_exponent_below_one():
    cfg = dataclasses.replace(three_app_config(), reward_exponent=0.5)
    errors = validate_config(cfg)
    assert any("reward_exponent" in e for e in errors)


def test_validate_flags_app_fields():
    bad = AppProfile(workload_cycles_per_bit=-1, arrival_rate=0.0,
                     size_min=10.0, size_max=5.0, size_mean=7.0, size_std=1.0)
    cfg = desk_config()
    cfg = dataclasses.replace(cfg, apps=(cfg.apps[0], bad))
    errors = validate_config(cfg)
    assert any("workload" in e for e in errors)
    assert any("arrival_rate" in e for e in errors)
    assert any("size bounds" in e for e in errors)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_flags_non_finite_floats(bad):
    cfg = desk_config()
    cases = {
        "edge_clock": dataclasses.replace(cfg, edge_clock=bad),
        "penalty_weight": dataclasses.replace(cfg, penalty_weight=bad),
        "rho": dataclasses.replace(cfg, rho=bad),
        "detect: size_std": dataclasses.replace(cfg, apps=(
            cfg.apps[0], dataclasses.replace(cfg.apps[1], size_std=bad))),
    }
    for name, bad_cfg in cases.items():
        assert f"{name} {bad} not finite" in validate_config(bad_cfg)


class TestFeasibility:
    def test_three_app_rates_match_hand_arithmetic(self):
        # lambda * mu * w with mu = (min+max)/2 in bits
        rep = feasibility_check(three_app_config())
        expected = [5 * 170 * BITS_PER_KB * 10435,
                    8 * 52 * BITS_PER_KB * 25346,
                    4 * 55 * BITS_PER_KB * 45043]
        assert np.allclose(rep.per_app_cycle_rate, expected)
        assert rep.per_app_cycle_rate[0] == pytest.approx(72.7e9, abs=0.1e9)
        assert rep.per_app_cycle_rate[1] == pytest.approx(86.4e9, abs=0.1e9)
        assert rep.per_app_cycle_rate[2] == pytest.approx(81.2e9, abs=0.1e9)
        assert rep.total_cycle_rate < rep.total_capacity == 256e9
        assert rep.required_bandwidth == pytest.approx(12.2e6, abs=0.1e6)
        assert rep.feasible

    def test_no_cloud_is_infeasible(self):
        cfg = dataclasses.replace(three_app_config(), cloud_cores=0)
        rep = feasibility_check(cfg)
        assert rep.total_capacity == 40e9
        assert not rep.feasible

    def test_eight_app_total(self):
        rep = feasibility_check(eight_app_config())
        assert rep.total_cycle_rate == pytest.approx(193e9, abs=1e9)
        assert rep.feasible

    def test_deterministic_pure_function(self):
        cfg = desk_config()
        assert feasibility_check(cfg) == feasibility_check(cfg)


def test_json_round_trip(tmp_path):
    cfg = dataclasses.replace(three_app_config(), penalty_weight=3.5,
                              cloud_cost_kind="per-core")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("profile", ["paper", "paper8", "desk"])
def test_dict_round_trip_through_json(profile):
    cfg = get_profile(profile)
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_json_of_earlier_versions_still_loads(tmp_path):
    # earlier versions wrote the unused kappa and discount keys
    d = dataclasses.asdict(desk_config())
    d.update(kappa=1.0 / 400e9 ** 3, discount=0.99)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d, indent=2))
    assert load_config(path) == desk_config()


def test_json_accepts_size_suffixes_and_derives_moments(tmp_path):
    d = dataclasses.asdict(desk_config())
    d["apps"][0]["size_min"] = "10kB"
    d["apps"][0]["size_max"] = "50kB"
    del d["apps"][0]["size_mean"]
    del d["apps"][0]["size_std"]
    cfg = config_from_dict(d)
    assert cfg.apps[0].size_mean == pytest.approx(30 * BITS_PER_KB)
    assert cfg.apps[0].size_std == pytest.approx(10 * BITS_PER_KB)


def test_get_profile_unknown_name():
    with pytest.raises(KeyError):
        get_profile("nope")


def test_state_and_action_dims():
    assert three_app_config().state_dim == 16
    assert eight_app_config().state_dim == 41
    assert desk_config().action_dim == 6


def test_the_queue_count_is_the_app_count(tmp_path):
    # a config file's n_queues key, which earlier versions wrote, is ignored
    d = dataclasses.asdict(desk_config())
    d["n_queues"] = 7
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg = load_config(path)
    assert cfg == desk_config()
    assert cfg.n_queues == len(cfg.apps) == 2


def test_validate_refuses_an_empty_app_list():
    assert validate_config(dataclasses.replace(desk_config(), apps=())) == [
        "apps is empty: there is no queue"]
