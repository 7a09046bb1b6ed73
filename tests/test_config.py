import json

import numpy as np
import pytest

from beamsparse import (
    AngleGrid,
    ConfigurationError,
    ContractError,
    ExperimentConfig,
    MainlobeSpec,
    SolverParams,
    build_template,
    cardinality,
    config_to_dict,
    load_config,
    parse_config,
    peak_sidelobe_db,
    serialize_config,
)
from beamsparse.arrays import MAX_MATRIX_ENTRIES

MINIMAL = '{"mainlobes": [{"start_deg": 22.0, "end_deg": 28.0, "level": 1000.0}]}'


def test_minimal_config_takes_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_elements == 30
    assert cfg.spacing_ratio == 0.5
    assert (cfg.grid_start_deg, cfg.grid_stop_deg, cfg.grid_step_deg) == (-90.0, 90.0, 1.0)
    assert cfg.lam == 0.1
    assert cfg.rho == 30.0
    assert cfg.eta == 1e-8
    assert cfg.max_iters == 1000
    assert cfg.cardinality_threshold == 1e-3
    assert cfg.mainlobes == (MainlobeSpec(22.0, 28.0, 1000.0),)


def test_full_document_round_trips():
    doc = {
        "n_elements": 12,
        "spacing_ratio": 0.4,
        "grid_start_deg": -60.0,
        "grid_stop_deg": 60.0,
        "grid_step_deg": 2.0,
        "mainlobes": [
            {"start_deg": -15.0, "end_deg": -11.0, "level": 1000.0},
            {"start_deg": 11.0, "end_deg": 15.0, "level": 1000.0},
        ],
        "sidelobe_level": 0.5,
        "lambda": 0.25,
        "rho": 12.0,
        "eta": 1e-6,
        "max_iters": 400,
        "seed": 7,
        "cardinality_threshold": 0.01,
        "output_dir": "out/run1",
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.lam == 0.25
    assert cfg.seed == 7
    assert parse_config(serialize_config(cfg)) == cfg


def test_lambda_key_maps_to_lam_attribute():
    cfg = parse_config('{"mainlobes": [{"start_deg": 0, "end_deg": 5}], "lambda": 0.5}')
    assert cfg.lam == 0.5
    assert config_to_dict(cfg)["lambda"] == 0.5
    assert "lam" not in config_to_dict(cfg)


def test_lobe_level_defaults_to_1000():
    cfg = parse_config('{"mainlobes": [{"start_deg": 10, "end_deg": 20}]}')
    assert cfg.mainlobes[0].level == 1000.0


def test_empty_mainlobes_rejected():
    with pytest.raises(ConfigurationError, match="mainlobes"):
        parse_config('{"mainlobes": []}')


def test_rho_must_exceed_two():
    with pytest.raises(ConfigurationError, match="rho must exceed 2"):
        parse_config(MINIMAL[:-1] + ', "rho": -1}')
    with pytest.raises(ConfigurationError, match="rho must exceed 2"):
        parse_config(MINIMAL[:-1] + ', "rho": 2.0}')


def test_malformed_json_reports_location():
    with pytest.raises(ConfigurationError, match=r"line 2 column"):
        parse_config('{\n"mainlobes": }')


def test_non_utf8_file_is_a_configuration_error_naming_it(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
    with pytest.raises(ConfigurationError, match="utf16.json.*not UTF-8"):
        load_config(path)


def test_non_utf8_file_in_a_long_directory_is_named_in_short(tmp_path):
    path = tmp_path / ("d" * 200) / "utf16.json"
    path.parent.mkdir()
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
    with pytest.raises(ConfigurationError, match="^config file 'utf16.json' is not UTF-8") as excinfo:
        load_config(path)
    assert len(str(excinfo.value)) <= 200


def test_unknown_field_rejected():
    with pytest.raises(ConfigurationError, match="unknown config field 'lambda_weight'"):
        parse_config(MINIMAL[:-1] + ', "lambda_weight": 0.1}')


def test_repeated_top_level_key_rejected():
    # the last value would win without a word: lambda 5, not 0.1
    with pytest.raises(ConfigurationError, match="config key 'lambda' is repeated"):
        parse_config(MINIMAL[:-1] + ', "lambda": 0.1, "lambda": 5}')


def test_repeated_lobe_key_rejected():
    # the last value would win without a word: a lobe on [0, 28], not [22, 28]
    with pytest.raises(ConfigurationError, match="config key 'start_deg' is repeated"):
        parse_config('{"mainlobes": [{"start_deg": 22, "end_deg": 28, "start_deg": 0}]}')


def test_unknown_lobe_field_rejected():
    with pytest.raises(ConfigurationError, match="mainlobes"):
        parse_config('{"mainlobes": [{"start_deg": 0, "end_deg": 5, "width": 3}]}')


LONG_KEY = "k" * 10_000


@pytest.mark.parametrize("text, message", [
    (MINIMAL[:-1] + f', "{LONG_KEY}": 0.1}}', "unknown config field 'kkk"),
    (f'{{"mainlobes": [{{"start_deg": 0, "end_deg": 5, "{LONG_KEY}": 3}}]}}',
     "mainlobes[0] has unknown field 'kkk"),
    (f'{{"{LONG_KEY}": 1, "{LONG_KEY}": 2}}', "config key 'kkk"),
], ids=["unknown-top-level", "unknown-lobe", "repeated"])
def test_long_key_is_echoed_in_short(text, message):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(text)
    assert str(excinfo.value).startswith(message)
    assert len(str(excinfo.value)) <= 200


@pytest.mark.parametrize(
    "mainlobes,message",
    [
        ("[5]", r"mainlobes\[0\] must be an object"),
        ('[{"start_deg": 0}]', "missing 'end_deg'"),
        ('{"start_deg": 0, "end_deg": 5}', "mainlobes must be a list"),
    ],
    ids=["not_an_object", "missing_end", "not_a_list"],
)
def test_malformed_mainlobes_are_named(mainlobes, message):
    with pytest.raises(ConfigurationError, match=message):
        parse_config('{"mainlobes": %s}' % mainlobes)


def test_type_errors_name_the_field():
    with pytest.raises(ConfigurationError, match="n_elements"):
        parse_config(MINIMAL[:-1] + ', "n_elements": 8.5}')
    with pytest.raises(ConfigurationError, match="seed"):
        parse_config(MINIMAL[:-1] + ', "seed": "abc"}')
    with pytest.raises(ConfigurationError, match="eta"):
        parse_config(MINIMAL[:-1] + ', "eta": true}')
    with pytest.raises(ConfigurationError, match="output_dir"):
        parse_config(MINIMAL[:-1] + ', "output_dir": 3}')
    # a count too large for a float, which has no steering phase
    with pytest.raises(ConfigurationError, match="n_elements"):
        parse_config(MINIMAL[:-1] + ', "n_elements": 1%s}' % ("0" * 400))
    # every real field, top-level or lobe, passes the owner's scalar rule
    lobe_fields = {"start_deg": "mainlobe interval", "end_deg": "mainlobe interval",
                   "level": "mainlobe level"}
    for field in ["spacing_ratio", "grid_start_deg", "grid_stop_deg", "grid_step_deg",
                  "sidelobe_level", "lambda", "rho", "eta", "cardinality_threshold", *lobe_fields]:
        for value in ["0.5", None, True, [1.0], {"a": 1}, 10**400]:
            doc = json.loads(MINIMAL)
            (doc["mainlobes"][0] if field in lobe_fields else doc)[field] = value
            with pytest.raises(ConfigurationError, match=lobe_fields.get(field, field)):
                parse_config(json.dumps(doc))
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigurationError, match="spacing_ratio"):
        cfg.with_overrides(spacing_ratio="x")
    with pytest.raises(ConfigurationError, match="grid_step_deg"):
        cfg.with_overrides(grid_step_deg=None)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("n_elements", 1, "n_elements"),
        ("spacing_ratio", 0.0, "spacing_ratio"),
        ("spacing_ratio", 1e308, "spacing_ratio"),
        ("grid_step_deg", -1.0, "grid_step_deg"),
        ("eta", 0.0, "eta"),
        ("max_iters", -5, "max_iters"),
        ("cardinality_threshold", 1.5, "cardinality_threshold"),
        ("sidelobe_level", -0.1, "sidelobe_level"),
    ],
)
def test_invariant_violations_are_named(field, value, message):
    doc = json.loads(MINIMAL)
    doc[field] = value
    with pytest.raises(ConfigurationError, match=message):
        parse_config(json.dumps(doc))


def test_grid_bounds_checked():
    doc = json.loads(MINIMAL)
    doc["grid_start_deg"] = 30.0
    doc["grid_stop_deg"] = 10.0
    with pytest.raises(ConfigurationError, match="grid_start_deg"):
        parse_config(json.dumps(doc))
    doc["grid_start_deg"] = -120.0
    doc["grid_stop_deg"] = 90.0
    with pytest.raises(ConfigurationError, match=r"\[-90, 90\]"):
        parse_config(json.dumps(doc))


def test_top_level_must_be_object():
    with pytest.raises(ConfigurationError, match="object"):
        parse_config("[1, 2, 3]")


def test_with_overrides_revalidates():
    cfg = parse_config(MINIMAL)
    assert cfg.with_overrides(seed=99).seed == 99
    with pytest.raises(ConfigurationError):
        cfg.with_overrides(rho=1.0)


def test_direct_construction_validates():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(mainlobes=())
    with pytest.raises(ConfigurationError, match="MainlobeSpec"):
        ExperimentConfig(mainlobes=({"start_deg": 0.0, "end_deg": 5.0},))
    # only a tuple keeps the frozen config hashable
    for mainlobes in (None, 5, [MainlobeSpec(22.0, 28.0)]):
        with pytest.raises(ConfigurationError, match="mainlobes must be a tuple"):
            ExperimentConfig(mainlobes=mainlobes)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("field", ["spacing_ratio", "lambda", "rho", "sidelobe_level", "level"])
def test_non_finite_values_rejected(field, value):
    doc = json.loads(MINIMAL)
    target = doc["mainlobes"][0] if field == "level" else doc
    target[field] = float(value)
    with pytest.raises(ConfigurationError):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value",
    [("grid_start_deg", "-Infinity"), ("grid_stop_deg", "Infinity"), ("grid_step_deg", "Infinity"),
     ("grid_stop_deg", "NaN")],
)
def test_non_finite_grid_rejected(field, value):
    doc = json.loads(MINIMAL)
    doc[field] = float(value)
    with pytest.raises(ConfigurationError):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "field,message", [("rho", "rho must exceed 2"), ("start_deg", "mainlobe interval")],
    ids=["rho", "start_deg"],
)
def test_huge_integer_is_a_configuration_error(field, message):
    # float() of a 401-digit integer overflows; the owner's scalar rule reads it as NaN
    doc = json.loads(MINIMAL)
    target = doc["mainlobes"][0] if field == "start_deg" else doc
    target[field] = 10**400
    with pytest.raises(ConfigurationError, match=message):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("field,value", [("level", 1e160), ("sidelobe_level", 1e300)])
def test_template_energy_overflow_is_a_configuration_error(field, value):
    doc = json.loads(MINIMAL)
    target = doc["mainlobes"][0] if field == "level" else doc
    target[field] = value
    with pytest.raises(ConfigurationError, match="template energy"):
        parse_config(json.dumps(doc))


def test_integer_past_the_digit_limit_is_a_configuration_error():
    # json.loads refuses integer literals longer than the interpreter's 4300-digit limit
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        parse_config(MINIMAL[:-1] + ', "rho": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize("opening", ["[", '{"a": '])
def test_nesting_past_the_parser_depth_is_a_configuration_error(opening):
    # json.loads recurses once per level and raises RecursionError this deep
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        parse_config(opening * 100_000)


def test_grid_rule_is_on_generated_angles():
    cfg = parse_config(MINIMAL[:-1] + ', "grid_stop_deg": 90.5}')
    assert cfg.grid.angles_deg[-1] == 90.0
    with pytest.raises(ConfigurationError, match=r"\[-90, 90\]"):
        parse_config(MINIMAL[:-1] + ', "grid_stop_deg": 1e6}')


def test_zero_lambda_accepted_as_by_solver_params():
    assert parse_config(MINIMAL[:-1] + ', "lambda": 0}').lam == 0.0
    assert SolverParams(lam=0.0).lam == 0.0


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed"):
        parse_config(MINIMAL[:-1] + ', "seed": -1}')


def test_config_keeps_the_objects_it_checked():
    cfg = parse_config(MINIMAL[:-1] + ', "lambda": 0.25, "seed": 4}')
    assert (cfg.geometry.n_elements, cfg.grid.count, cfg.template.count) == (30, 181, 181)
    assert cfg.params == SolverParams(lam=0.25, rho=30.0, eta=1e-8, max_iters=1000, seed=4)
    assert "geometry" not in config_to_dict(cfg)
    with pytest.raises(ConfigurationError, match="unknown config field 'params'"):
        parse_config(MINIMAL[:-1] + ', "params": 1}')


def test_numpy_integers_serialize():
    cfg = parse_config(MINIMAL).with_overrides(n_elements=np.int64(8), seed=np.int64(3))
    assert json.loads(serialize_config(cfg))["seed"] == 3
    assert parse_config(serialize_config(cfg)) == cfg


def test_tiny_grid_step_is_a_configuration_error():
    # asks for 1.8e14 angles; rejected before anything is allocated
    with pytest.raises(ConfigurationError, match="grid_step_deg"):
        parse_config(MINIMAL[:-1] + ', "grid_step_deg": 1e-12}')


@pytest.mark.parametrize(
    "lobe",
    [
        {"start_deg": -90.0, "end_deg": 90.0},  # every grid angle is mainlobe
        {"start_deg": 22.2, "end_deg": 22.8},  # no grid angle is mainlobe
    ],
)
@pytest.mark.parametrize("sidelobe_level", [0.0, 1.0])
def test_grid_needs_mainlobe_and_sidelobe_angles(lobe, sidelobe_level):
    doc = {"mainlobes": [lobe], "sidelobe_level": sidelobe_level}
    with pytest.raises(ConfigurationError, match="mainlobes"):
        parse_config(json.dumps(doc))


def test_oversize_array_is_a_configuration_error():
    # 10^12 elements would need a 10^24-entry block matrix; rejected before allocation
    with pytest.raises(ConfigurationError, match="n_elements 1000000000000"):
        parse_config(MINIMAL[:-1] + ', "n_elements": 1000000000000}')


@pytest.mark.parametrize(
    "n_elements, grid, accepted",
    [
        (5477, {}, True),  # N^2 = 29,997,529 on the 181-angle grid
        (5478, {}, False),  # N^2 = 30,008,484
        (250, {"grid_start_deg": -60.0, "grid_stop_deg": 59.999, "grid_step_deg": 0.001}, True),
        (251, {"grid_start_deg": -60.0, "grid_stop_deg": 59.999, "grid_step_deg": 0.001}, False),
    ],
)
def test_solve_size_budget_boundary(n_elements, grid, accepted):
    # N * N bounds the 181-angle grid; the K x N side uses 120,000 angles,
    # so 250 elements meet the budget exactly
    doc = json.loads(MINIMAL) | grid | {"n_elements": n_elements}
    if accepted:
        cfg = parse_config(json.dumps(doc))
        assert max(cfg.grid.count * n_elements, n_elements**2) <= MAX_MATRIX_ENTRIES
    else:
        with pytest.raises(ConfigurationError, match=f"n_elements {n_elements} "):
            parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "threshold",
    [0.0, 1e-300, 0.5, 1 - 1e-16, 1.0, np.nan, -1.0, np.inf, pytest.param("0.5", id="str"),
     None, True, 1 + 2j, pytest.param([0.5], id="list"), pytest.param(10**400, id="huge_int")],
)
def test_config_and_cardinality_share_the_threshold_rule(threshold):
    lobes = (MainlobeSpec(22.0, 28.0, 1000.0),)
    w = np.array([1.0, 0.0], complex)
    if type(threshold) is float and 0 < threshold < 1:
        assert ExperimentConfig(mainlobes=lobes, cardinality_threshold=threshold)
        assert cardinality(w, threshold) == 1
        return
    with pytest.raises(ConfigurationError, match="cardinality_threshold"):
        ExperimentConfig(mainlobes=lobes, cardinality_threshold=threshold)
    with pytest.raises(ContractError, match="cardinality_threshold"):
        cardinality(w, threshold)


@pytest.mark.parametrize(
    "lobe", [MainlobeSpec(-90.0, 90.0), MainlobeSpec(0.2, 0.8)], ids=["all_mainlobe", "no_mainlobe"]
)
def test_config_and_peak_sidelobe_share_the_region_rule(lobe):
    with pytest.raises(ConfigurationError, match="mainlobes"):
        ExperimentConfig(mainlobes=(lobe,))
    mask = build_template(AngleGrid.uniform(-90.0, 90.0, 1.0), [lobe]).mainlobe_mask
    with pytest.raises(ContractError, match="mainlobes"):
        peak_sidelobe_db(np.ones(mask.size), mask)
