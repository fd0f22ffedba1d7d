import dataclasses
import json

import numpy as np
import pytest

from lyaq.config import (AppProfile, ConfigError, SystemConfig, parse_size,
                         feasibility_check, config_from_dict,
                         load_config, save_config, get_profile, PROFILES,
                         BITS_PER_KB, BITS_PER_MB)


def test_parse_size_suffixes():
    assert parse_size("170kB") == 170 * BITS_PER_KB
    assert parse_size("0.1MB") == pytest.approx(0.1 * BITS_PER_MB)
    assert parse_size("2B") == 16.0
    assert parse_size(4096) == 4096.0
    assert parse_size("12.5") == 12.5


def test_profile_from_bounds_convention():
    # size moments left out are filled from the bounds
    app = AppProfile(10435.0, 5.0, parse_size("40kB"), parse_size("300kB"))
    assert app.size_mean == pytest.approx((app.size_max + app.size_min) / 2)
    assert app.size_std == pytest.approx((app.size_max - app.size_min) / 4)
    assert app.size_mean == pytest.approx(170 * BITS_PER_KB)
    assert app.mean_bits_per_slot == pytest.approx(5 * 170 * BITS_PER_KB)


def broken_rules(base, **changes) -> list:
    """The errors of the ConfigError that replace(base, **changes) raises."""
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(base, **changes)
    return exc.value.errors


def test_validate_ok_for_builtin_profiles():
    for cfg in (get_profile("paper"), get_profile("paper8"), get_profile("desk")):
        assert dataclasses.replace(cfg) == cfg  # built again, and no rule broke


def test_validate_flags_exponent_below_one():
    errors = broken_rules(get_profile("paper"), reward_exponent=0.5)
    assert any("reward_exponent" in e for e in errors)


def test_validate_flags_app_fields():
    bad = AppProfile(workload_cycles_per_bit=-1, arrival_rate=0.0,
                     size_min=10.0, size_max=5.0, size_mean=7.0, size_std=1.0)
    cfg = get_profile("desk")
    errors = broken_rules(cfg, apps=(cfg.apps[0], bad))
    assert any("workload" in e for e in errors)
    assert any("arrival_rate" in e for e in errors)
    assert any("size bounds" in e for e in errors)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_flags_non_finite_floats(bad):
    cfg = get_profile("desk")
    cases = {
        "edge_clock": dict(edge_clock=bad),
        "penalty_weight": dict(penalty_weight=bad),
        "rho": dict(rho=bad),
        "detect: size_std": dict(apps=(
            cfg.apps[0], dataclasses.replace(cfg.apps[1], size_std=bad))),
    }
    for name, changes in cases.items():
        assert f"{name} {bad} not finite" in broken_rules(cfg, **changes)


def test_a_config_error_lists_each_broken_rule_and_reads_as_one_message():
    errors = broken_rules(get_profile("desk"), rho=float("nan"))
    assert errors == ["rho nan not finite"]
    errors = broken_rules(get_profile("desk"), rho=0.0, episode_length=0)
    assert errors == ["rho 0.0 <= 0", "episode_length 0 < 1"]
    with pytest.raises(ValueError, match="^rho 0.0 <= 0; episode_length 0 < 1$"):
        dataclasses.replace(get_profile("desk"), rho=0.0, episode_length=0)


def test_negative_cloud_cores_are_refused_under_either_cost():
    for kind in ("cubic", "per-core"):
        assert broken_rules(get_profile("desk"), cloud_cores=-1, cloud_cost_kind=kind) == [
            "cloud_cores -1 < 0"]
    # per-core bills whole cores of cloud_core_clock, so it needs no N_C
    assert dataclasses.replace(get_profile("desk"), cloud_cores=0,
                               cloud_cost_kind="per-core").cloud_cores == 0


def test_an_unknown_cloud_cost_kind_is_refused():
    assert broken_rules(get_profile("desk"), cloud_cost_kind="linear") == [
        "cloud_cost_kind 'linear' not in ('cubic', 'per-core')"]


class TestFeasibility:
    def test_three_app_rates_match_hand_arithmetic(self):
        # lambda * mu * w with mu = (min+max)/2 in bits
        rep = feasibility_check(get_profile("paper"))
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
        cfg = dataclasses.replace(get_profile("paper"), cloud_cores=0,
                                  cloud_cost_kind="per-core")
        rep = feasibility_check(cfg)
        assert rep.total_capacity == 40e9
        assert not rep.feasible

    def test_eight_app_total(self):
        rep = feasibility_check(get_profile("paper8"))
        assert rep.total_cycle_rate == pytest.approx(193e9, abs=1e9)
        assert rep.feasible

    def test_deterministic_pure_function(self):
        cfg = get_profile("desk")
        assert feasibility_check(cfg) == feasibility_check(cfg)


def test_json_round_trip(tmp_path):
    cfg = dataclasses.replace(get_profile("paper"), penalty_weight=3.5,
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
    d = dataclasses.asdict(get_profile("desk"))
    d.update(kappa=1.0 / 400e9 ** 3, discount=0.99)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d, indent=2))
    assert load_config(path) == get_profile("desk")


def test_json_accepts_size_suffixes_and_derives_moments(tmp_path):
    d = dataclasses.asdict(get_profile("desk"))
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
    assert get_profile("paper").state_dim == 16
    assert get_profile("paper8").state_dim == 41
    assert get_profile("desk").action_dim == 6


def test_the_queue_count_is_the_app_count(tmp_path):
    # a config file's n_queues key, which earlier versions wrote, is ignored
    d = dataclasses.asdict(get_profile("desk"))
    d["n_queues"] = 7
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg = load_config(path)
    assert cfg == get_profile("desk")
    assert cfg.n_queues == len(cfg.apps) == 2


def test_validate_refuses_an_empty_app_list():
    assert broken_rules(get_profile("desk"), apps=()) == [
        "apps is empty: there is no queue"]


@pytest.mark.parametrize("profile", ["paper", "paper8", "desk"])
def test_a_profile_survives_a_file_round_trip_and_leaves_its_description(profile, tmp_path):
    description = json.loads(json.dumps(PROFILES[profile]))
    cfg = get_profile(profile)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert json.loads(json.dumps(PROFILES[profile])) == description


def test_a_mean_arrival_that_underflows_is_refused_naming_the_app():
    # 1e-300 tasks of ~1.5e-30 bits: m_i underflows to 0, which would scale
    # the observation's arrival and window entries to nan
    tiny = AppProfile(1e4, 1e-300, 1e-30, 2e-30, name="tiny")
    assert tiny.mean_bits_per_slot == 0.0
    cfg = get_profile("desk")
    assert broken_rules(cfg, apps=(cfg.apps[0], tiny)) == [
        "tiny: mean bits per slot 0.0 (arrival_rate * size_mean) not in (0, inf)"]
    huge = AppProfile(1e4, 1e300, 1e300, 2e300, name="huge")
    assert broken_rules(cfg, apps=(huge,)) == [
        "huge: mean bits per slot inf (arrival_rate * size_mean) not in (0, inf)"]


def test_a_bad_factor_of_the_mean_arrival_has_one_message():
    cfg = get_profile("desk")
    for changes, expected in (
            (dict(arrival_rate=0.0), "detect: arrival_rate 0.0 <= 0"),
            (dict(arrival_rate=float("inf")), "detect: arrival_rate inf not finite"),
            (dict(size_mean=0.0), "detect: size_mean 0.0 outside bounds")):
        app = dataclasses.replace(cfg.apps[1], **changes)
        assert broken_rules(cfg, apps=(cfg.apps[0], app)) == [expected]
