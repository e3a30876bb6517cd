import math
from dataclasses import asdict

import pytest

from planarmimic.config import (TASK_DEFAULTS, ConfigError, TrainConfig,
                                _set_dotted, build_config, config_to_mapping,
                                default_config, save_config)
from planarmimic.sim import MOTIONS


# (section, field, value): the first four trained and exited 0, the others
# failed at run time with exit 3, a non-finite action or gradient
NON_FINITE = [("sim", "kp", math.nan), ("ppo", "learning_rate", math.nan),
              ("reward", "w_imitation", math.nan), ("ppo", "max_grad_norm", math.nan),
              ("sim", "body_mass", math.nan), ("sim", "gravity", math.nan),
              ("sim", "friction", math.inf), ("disc", "w_gp", math.nan),
              ("disc", "w_loss", math.inf)]


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

    @pytest.mark.parametrize("text, message", [
        ("seed = 2\nnonsense line\n",
         "line 2: expected 'key = value', got 'nonsense line'"),
        ("seed = 2\n# a comment\nfoo.bar = 1\n",
         "line 3: unknown config section 'foo' in key 'foo.bar'")])
    def test_a_refused_file_line_is_named_by_its_number(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as err:
            build_from_text(tmp_path, text)
        assert err.value.errors == [message]

    def test_tuple_field(self, tmp_path):
        cfg = build_from_text(tmp_path, "ppo.hidden_sizes = 32,32\n")
        assert cfg.ppo.hidden_sizes == (32, 32)
        assert all(type(n) is int for n in cfg.ppo.hidden_sizes)

    def test_bool_coercion(self, tmp_path):
        cfg = build_from_text(tmp_path, "dtw.open_end = no\nppo.adaptive_lr = off\n")
        assert cfg.dtw.open_end is False
        assert cfg.ppo.adaptive_lr is False
        cfg = build_config(overrides=["dtw.open_end=false", "dtw.open_end=TRUE"])
        assert cfg.dtw.open_end is True

    def test_each_value_error_names_its_key(self):
        # each used to give its message without its key
        with pytest.raises(ConfigError) as err:
            build_config(overrides=["ppo.epochs=abc", "dtw.open_end=maybe",
                                    "sim.kp=fast"])
        assert err.value.errors == [
            "ppo.epochs: invalid literal for int() with base 10: 'abc'",
            "dtw.open_end: expected a boolean, got 'maybe'",
            "sim.kp: could not convert string to float: 'fast'"]

    def test_a_file_value_error_names_its_line_and_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            build_from_text(tmp_path, "seed = 1.5\n")
        assert err.value.errors == [
            "line 1: seed: invalid literal for int() with base 10: '1.5'"]

    def test_a_non_finite_tuple_entry_parses_as_a_float(self):
        # it used to fail in int() with a message naming no key
        cfg = build_config(overrides=["ppo.hidden_sizes=nan"])
        assert math.isnan(cfg.ppo.hidden_sizes[0])
        assert "ppo.hidden_sizes must be finite, got (nan,)" in cfg.validate()


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
        cfg.sim.link_lengths = (0.16,)
        cfg.sim.joint_limits_low = (-1.3, -2.2)
        cfg.ppo.hidden_sizes = (-5,)
        cfg.disc.hidden_sizes = (0,)
        cfg.disc.optimizer = "foo"
        cfg.disc.rho = 1.5
        cfg.disc.momentum = -2.0
        cfg.disc.weight_decay = -1.0
        cfg.sim.half_length = -0.2
        cfg.sim.friction = -1.0
        cfg.sim.contact_damping = -80.0
        cfg.sim.max_episode_time = 0.05
        # non-finite values, each of which passed before
        for section, name, value in NON_FINITE:
            setattr(getattr(cfg, section), name, value)
        errors = cfg.validate()
        assert len(errors) >= 22 + len(NON_FINITE)
        joined = "\n".join(errors)
        for fragment in ("task", "iterations", "ppo.clip", "disc.horizon",
                         "reward.w_action_rate", "dtw.step_pattern",
                         "sim.contact_stiffness",
                         "sim.tracking_rate * sim.dt_physics must be in [0, 0.5]",
                         "sim.max_joint_vel must be >= 0",
                         "sim.mass_perturb_high must be >= sim.mass_perturb_low",
                         "sim.body_mass + sim.mass_perturb_low must be > 0",
                         "eval.episode_frames", "sim.link_lengths must have 2",
                         "sim.joint_limits_high must have 4",
                         "ppo.hidden_sizes must be integers >= 1",
                         "disc.hidden_sizes must be integers >= 1",
                         "disc.optimizer must be one of",
                         "disc.rho and disc.momentum must be in [0, 1)",
                         "disc.weight_decay must be >= 0",
                         "sim.half_length and sim.half_height must be > 0",
                         "sim.friction, sim.contact_damping and sim.tangential_damping",
                         "sim.max_episode_time must be a whole number",
                         *(f"{section}.{name} must be finite"
                           for section, name, _ in NON_FINITE)):
            assert fragment in joined

    @pytest.mark.parametrize("setting, fragment", [
        # these used to pass validation, then fail at run time with exit 3
        # (the last trained a critic without hidden units)
        ("sim.link_lengths=0.16", "sim.link_lengths must have 2 entries"),
        ("sim.joint_limits_low=-1.3,-2.2", "must have 4 entries each"),
        ("sim.joint_limits_high=1.3,2.2,1.3,2.2,1.0", "must have 4 entries each"),
        ("ppo.hidden_sizes=-5", "ppo.hidden_sizes must be integers >= 1"),
        ("ppo.hidden_sizes=16.5", "ppo.hidden_sizes must be integers >= 1"),
        ("disc.hidden_sizes=0", "disc.hidden_sizes must be integers >= 1"),
        # the next two also failed at run time, and the others after them
        # trained without an error
        ("disc.optimizer=foo", "disc.optimizer must be one of"),
        ("disc.rho=1.5", "disc.rho and disc.momentum must be in [0, 1)"),
        ("disc.weight_decay=-1", "disc.weight_decay must be >= 0"),
        ("disc.momentum=-2", "disc.rho and disc.momentum must be in [0, 1)"),
        ("sim.link_lengths=-0.16,0.16", "sim.link_lengths must be > 0"),
        ("sim.link_lengths=0,0.16", "sim.link_lengths must be > 0"),
        ("sim.half_length=-0.2", "sim.half_length and sim.half_height must be > 0"),
        ("sim.friction=-1", "sim.friction, sim.contact_damping and sim.tangential"),
        ("sim.contact_damping=-80", "sim.friction, sim.contact_damping and sim.tang"),
        ("sim.tangential_damping=-1", "sim.friction, sim.contact_damping and sim.tang"),
        # a negative noise scale used to switch the noise off silently
        ("ppo.obs_noise=-0.5", "ppo.obs_noise must be >= 0"),
        ("sim.reset_noise_joint=-0.1", "sim.reset_noise_joint and sim.reset_noise_height"),
        ("sim.reset_noise_height=-0.01", "sim.reset_noise_joint and sim.reset_noise_height"),
        # an episode clock of whole control periods
        ("sim.max_episode_time=0.05", "sim.max_episode_time must be a whole number"),
        # one error for one value: the next two also gave "must be finite"
        ("sim.max_episode_time=inf", "sim.max_episode_time must be > 0 and finite"),
        ("sim.max_episode_time=nan", "sim.max_episode_time must be > 0 and finite"),
        # tuple entries that are not integer literals parse as floats: these
        # used to fail in int() with a message naming no key
        ("sim.link_lengths=inf,0.16", "sim.link_lengths must be finite"),
        ("sim.joint_limits_low=-inf,-2.2,-1.3,-2.2",
         "sim.joint_limits_low must be finite"),
        # these also gave "must be integers >= 1"
        ("ppo.hidden_sizes=nan", "ppo.hidden_sizes must be finite, got (nan,)"),
        ("disc.hidden_sizes=64,inf", "disc.hidden_sizes must be finite, got (64, inf)"),
        # a negative seed used to pass, then numpy refused it mid-command
        ("seed=-1", "seed must be >= 0"),
        # a sign typo used to train: gravity threw the robot upward, and a
        # negative imitation weight paid the policy to leave the demos
        ("sim.gravity=-9.81", "sim.gravity must be > 0"),
        ("sim.gravity=0", "sim.gravity must be > 0"),
        ("reward.w_imitation=-1", "reward.w_imitation must be >= 0"),
    ])
    def test_shape_settings(self, setting, fragment):
        errors = build_config(overrides=[setting]).validate()
        assert len(errors) == 1 and fragment in errors[0]

    @pytest.mark.parametrize("optimizer", ["", "sgd", "rmsprop", "adam"])
    def test_each_optimizer_kind_is_valid(self, optimizer):
        assert build_config(overrides=[f"disc.optimizer={optimizer}"]).validate() == []

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

    def test_the_retired_full_state_key_is_unknown(self, tmp_path):
        # the critic sees base-only windows; a config that still sets the
        # key is refused by its name, and in a file by its line too
        with pytest.raises(ConfigError) as err:
            build_config(overrides=["disc.full_state=false"])
        assert err.value.errors == ["unknown config key 'disc.full_state'"]
        with pytest.raises(ConfigError) as err:
            build_from_text(tmp_path, "seed = 2\ndisc.full_state = false\n")
        assert err.value.errors == ["line 2: unknown config key 'disc.full_state'"]

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

    def test_an_override_without_equals_is_named(self):
        with pytest.raises(ConfigError) as err:
            build_config(overrides=["seed=2", "noequals"])
        assert err.value.errors == ["override 'noequals' must look like key=value"]

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
