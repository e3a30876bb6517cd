from dataclasses import asdict

import pytest

from planarmimic.config import (TASK_DEFAULTS, ConfigError, TrainConfig,
                                _set_dotted, build_config, config_to_mapping,
                                default_config, save_config)
from planarmimic.sim import MOTIONS


def build_from_text(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return build_config(path)


class TestParsing:
    def test_empty_text_gives_defaults(self, tmp_path):
        # with no task given the task is leap, with its defaults
        cfg = build_from_text(tmp_path, "")
        assert asdict(cfg) == asdict(default_config())

    def test_dotted_keys_reach_nested_sections(self, tmp_path):
        cfg = build_from_text(tmp_path, """
            # comment line
            task = backflip
            seed = 9
            disc.loss_kind = lsgan
            disc.horizon = 16
            ppo.gamma = 0.95
            reward.w_imitation = 0.8
            sim.body_mass = 3.0
            dtw.open_end = false
        """)
        assert cfg.task == "backflip"
        assert cfg.seed == 9
        assert cfg.disc.loss_kind == "lsgan"
        assert cfg.disc.horizon == 16
        assert cfg.ppo.gamma == 0.95
        assert cfg.reward.w_imitation == 0.8
        assert cfg.sim.body_mass == 3.0
        assert cfg.dtw.open_end is False

    def test_task_defaults_apply_regardless_of_order(self, tmp_path):
        a = build_from_text(tmp_path, "disc.horizon = 3\ntask = backflip\n")
        b = build_from_text(tmp_path, "task = backflip\ndisc.horizon = 3\n")
        assert a.disc.horizon == 3
        assert b.disc.horizon == 3
        # unoverridden per-task default survives
        c = build_from_text(tmp_path, "task = backflip\n")
        assert c.disc.horizon == 8

    def test_unknown_key_collected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            build_from_text(tmp_path, "bogus_key = 1\nppo.nonsense = 2\n")
        text = str(err.value)
        assert "bogus_key" in text
        assert "nonsense" in text

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            build_from_text(tmp_path, "just some words\n")

    def test_tuple_field(self, tmp_path):
        cfg = build_from_text(tmp_path, "ppo.hidden_sizes = 32,32\n")
        assert cfg.ppo.hidden_sizes == (32, 32)

    def test_bool_coercion(self, tmp_path):
        cfg = build_from_text(tmp_path, "disc.full_state = true\nppo.adaptive_lr = off\n")
        assert cfg.disc.full_state is True
        assert cfg.ppo.adaptive_lr is False


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        cfg = default_config("standup", "lsgan")
        cfg.seed = 123
        cfg.ppo.num_envs = 7
        cfg.disc.w_gp = 2.5
        cfg.refs = "some/path"
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        loaded = build_config(path)
        assert asdict(cfg) == asdict(loaded)

    def test_mapping_covers_every_field(self):
        mapping = config_to_mapping(TrainConfig())
        for key in ("task", "seed", "sim.body_mass", "disc.horizon",
                    "ppo.clip", "reward.w_imitation", "dtw.step_pattern",
                    "eval.rollouts"):
            assert key in mapping


class TestValidation:
    def test_default_is_valid(self):
        assert default_config().validate() == []

    def test_every_violation_enumerated(self):
        cfg = default_config()
        cfg.task = "flying"
        cfg.iterations = 0
        cfg.ppo.clip = -1.0
        cfg.disc.horizon = 0
        cfg.reward.w_action_rate = +0.1
        cfg.dtw.step_pattern = "zigzag"
        cfg.sim.contact_stiffness = 0.5
        cfg.sim.mass_perturb_low = -3.0
        cfg.sim.mass_perturb_high = -4.0
        cfg.sim.tracking_rate = 501.0
        cfg.sim.max_joint_vel = -1.0
        cfg.eval.episode_frames = -1
        errors = cfg.validate()
        assert len(errors) >= 12
        joined = "\n".join(errors)
        for fragment in ("task", "iterations", "ppo.clip", "disc.horizon",
                         "reward.w_action_rate", "dtw.step_pattern",
                         "sim.contact_stiffness",
                         "sim.tracking_rate * sim.dt_physics must be in [0, 0.5]",
                         "sim.max_joint_vel must be >= 0",
                         "sim.mass_perturb_high must be >= sim.mass_perturb_low",
                         "sim.body_mass + sim.mass_perturb_low must be > 0",
                         "eval.episode_frames"):
            assert fragment in joined

    @pytest.mark.parametrize("low, high, fragment", [
        # a reversed range used to pay a constant +low
        (1.0, 0.5, "sim.mass_perturb_high must be >= sim.mass_perturb_low"),
        # a negative body mass used to train
        (-3.0, -3.0, "sim.body_mass + sim.mass_perturb_low must be > 0"),
    ])
    def test_mass_perturbation_range(self, low, high, fragment):
        cfg = default_config()
        cfg.sim.mass_perturb_low, cfg.sim.mass_perturb_high = low, high
        assert cfg.validate() == [fragment]

    @pytest.mark.parametrize("key, value, fragment", [
        # 500 minibatches of 384 samples: every update aborted on an empty one
        ("ppo.minibatches", 500,
         "ppo.minibatches must be <= ppo.num_envs * ppo.steps_per_iter"),
        # these used to raise after the first rollout, with exit 3
        ("disc.minibatch_size", 0, "disc.minibatch_size must be >= 1"),
        ("disc.minibatch_size", -3, "disc.minibatch_size must be >= 1"),
    ])
    def test_minibatch_settings(self, key, value, fragment):
        cfg = default_config()
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
        assert cfg.validate() == [fragment]

    def test_one_sample_per_minibatch_is_valid(self):
        cfg = default_config()
        cfg.ppo.minibatches = cfg.ppo.num_envs * cfg.ppo.steps_per_iter
        cfg.disc.minibatch_size = 1
        assert cfg.validate() == []

    def test_gamma_consistency_enforced(self):
        # the termination penalty discounts by ppo.gamma: there is no second
        # gamma to disagree with it
        with pytest.raises(ConfigError, match="unknown config key 'reward.gamma'"):
            build_config(keys=[("reward.gamma", "0.99")])

    def test_require_valid_raises(self):
        cfg = default_config()
        cfg.iterations = -1
        with pytest.raises(ConfigError):
            cfg.require_valid()


class TestOverrides:
    def test_cli_style_overrides(self):
        cfg = build_config(overrides=["ppo.num_envs=3", "disc.learning_rate=1e-5"])
        assert cfg.ppo.num_envs == 3
        assert cfg.disc.learning_rate == 1e-5

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            build_config(overrides=["ppo.num_envs"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            build_config(overrides=["ppo.warp_speed=9"])

    def test_task_override_brings_its_defaults_before_explicit_keys(self):
        assert build_config(overrides=["task=backflip"]).disc.horizon == 8
        cfg = build_config(overrides=["disc.horizon=4", "task=backflip"])
        assert (cfg.task, cfg.disc.horizon) == ("backflip", 4)


class TestPrecedence:
    def test_a_later_task_keeps_the_file_keys(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("task = wave\ndisc.horizon = 3\n")
        for cfg in (build_config(path, keys=[("task", "backflip")]),
                    build_config(path, overrides=["task=backflip"])):
            # the file's horizon stays, backflip's other default applies
            assert (cfg.task, cfg.disc.horizon, cfg.reward.w_imitation) == ("backflip", 3, 2.0)

    def test_each_source_beats_the_ones_before(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("disc.horizon = 3\nseed = 5\niterations = 7\n")
        cfg = build_config(path, keys=[("seed", 6), ("iterations", 8)],
                           overrides=["iterations=9"])
        assert (cfg.disc.horizon, cfg.seed, cfg.iterations) == (3, 6, 9)

    @pytest.mark.parametrize("task", sorted(MOTIONS))
    @pytest.mark.parametrize("loss", ["wgan", "lsgan"])
    def test_default_config_sets_the_task_loss_and_task_defaults(self, task, loss):
        expected = TrainConfig(task=task)
        expected.disc.loss_kind = loss
        for key, value in TASK_DEFAULTS.get(task, {}).items():
            _set_dotted(expected, key, value)
        assert config_to_mapping(default_config(task, loss)) == config_to_mapping(expected)


class TestTaskDefaults:
    def test_the_default_config_is_leaps(self):
        # it had horizon 4 and imitation weight 1.0, a config no command built
        assert asdict(TrainConfig()) == asdict(default_config())

    def test_a_later_leap_drops_an_earlier_tasks_defaults(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("task = backflip\n")
        for cfg in (build_config(path, keys=[("task", "leap")]),
                    build_config(path, overrides=["task=leap"])):
            assert asdict(cfg) == asdict(default_config())

    def test_per_task_values(self):
        assert default_config("leap").disc.horizon == 2
        assert default_config("backflip").disc.horizon == 8
        assert default_config("backflip").reward.w_imitation == 2.0

    def test_loss_switch_preserves_everything_else(self):
        a = default_config("wave", "wgan")
        b = default_config("wave", "lsgan")
        a.disc.loss_kind = "lsgan"
        assert asdict(a) == asdict(b)
