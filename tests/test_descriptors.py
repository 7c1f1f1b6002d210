"""JSON mapping descriptors and the dilatation expression grammar."""

import json
import re

import numpy as np
import pytest

from harmdist.analytic import ZERO, LinearCombo
from harmdist.cli import EXIT_CONFIG, EXIT_OK, main
from harmdist.descriptors import (
    load_descriptor,
    parse_complex,
    parse_descriptor,
    parse_entry,
    parse_expr,
)
from harmdist.errors import ConfigError, NotSensePreservingError


def test_parse_complex_forms():
    assert parse_complex(2) == 2 + 0j
    assert parse_complex("0.5+0.3i") == 0.5 + 0.3j
    assert parse_complex("-0.2i") == -0.2j
    assert parse_complex([1.0, -2.0]) == 1.0 - 2.0j
    with pytest.raises(ConfigError):
        parse_complex("abc")
    with pytest.raises(ConfigError):
        parse_complex([1.0, 2.0, 3.0])


def test_parse_expr_terms():
    z = np.array([0.1, -0.2 + 0.1j])
    m = parse_expr("0.3z")
    np.testing.assert_allclose(m(z), 0.3 * z, rtol=1e-14)
    m = parse_expr("z^2")
    np.testing.assert_allclose(m(z), z**2, rtol=1e-14)
    m = parse_expr("0.5z^3 + 0.1z")
    np.testing.assert_allclose(m(z), 0.5 * z**3 + 0.1 * z, rtol=1e-14)
    m = parse_expr("-z + 0.2i*z^2")
    np.testing.assert_allclose(m(z), -z + 0.2j * z**2, rtol=1e-14)
    with pytest.raises(ConfigError):
        parse_expr("sin(z)")
    with pytest.raises(ConfigError):
        parse_expr("")


def _terms(m):
    """(coefficient, power) per term of a parsed expression."""
    monomials = [t for _, t in m.terms] if isinstance(m, LinearCombo) else [m]
    return [(t.coef, t.power) for t in monomials]


EXPONENT_TWINS = {"1e-3z": "0.001z", "2.5e-1z^2 + 0.1z": "0.25z^2 + 0.1z", "1E-2z": "0.01z",
                  "1e+2z": "100z"}


@pytest.mark.parametrize("expr, twin", EXPONENT_TWINS.items())
def test_parse_expr_keeps_an_exponent_sign_in_its_coefficient(expr, twin):
    assert _terms(parse_expr(expr)) == _terms(parse_expr(twin))


ACCEPTED = ["0.3z", "z^2", "0.5z^3 + 0.1z", "-z + 0.2i*z^2", "0.1 - 0.3z^2", "-0.2iz^3-0.1z",
            "z+-z", "0.5+0.3i*z"]


@pytest.mark.parametrize("expr", ACCEPTED)
def test_parse_expr_splits_an_expression_without_exponents_as_before(expr):
    """The terms of splitting at every sign, as the grammar did before exponents."""
    raws = [raw for raw in expr.replace("-", "+-").split("+") if raw.strip()]
    assert _terms(parse_expr(expr)) == [t for raw in raws for t in _terms(parse_expr(raw))]


@pytest.mark.parametrize("expr", ["z--z", "z-", "0.4z - ", "-"])
def test_parse_expr_rejects_a_term_that_is_a_bare_sign(expr):
    with pytest.raises(ConfigError, match=re.escape(f"term '-' in expression {expr!r}")):
        parse_expr(expr)


def test_analyze_exits_4_on_a_bare_sign_term(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"h": {"expr": "z-"}}))
    assert main(["analyze", "--map", str(path), "--grid", "16,64"]) == EXIT_CONFIG
    assert "term '-' in expression 'z-'" in capsys.readouterr().err


def test_analyze_reads_an_exponent_coefficient_as_its_decimal_twin(tmp_path, capsys):
    """A one-term expr is named by its Monomial, so the two reports are the same bytes."""
    outputs = []
    for expr in ("4e-1z", "0.4z"):
        path = tmp_path / f"{expr}.json"
        path.write_text(json.dumps({"h": {"name": "halfplane"}, "omega": {"expr": expr}}))
        assert main(["analyze", "--map", str(path), "--grid", "16,64"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_entry_variants():
    z = np.array([0.1 + 0.05j, -0.2j])
    e = parse_entry({"name": "halfplane"})
    np.testing.assert_allclose(e(z), z / (1 - z), rtol=1e-14)
    e = parse_entry({"name": "exp", "params": {"c": 2.0}})
    np.testing.assert_allclose(e(z), (np.exp(2 * z) - 1) / 2.0, rtol=1e-12)
    e = parse_entry({"name": "mobius", "params": {"a": 1, "b": -0.2, "c": -0.2, "d": 1}})
    np.testing.assert_allclose(e(z), (z - 0.2) / (1 - 0.2 * z), rtol=1e-12)
    e = parse_entry({"coefficients": [0, 1, "0.5i"]})
    np.testing.assert_allclose(e(z), z + 0.5j * z**2, rtol=1e-12)
    e = parse_entry({"compose_sigma": {"a": 0.3, "inner": {"expr": "0.5z"}}})
    from harmdist.disk import automorphism

    np.testing.assert_allclose(e(z), automorphism(0.3, 0.5 * z), rtol=1e-10)


def test_parse_entry_rejections():
    with pytest.raises(ConfigError):
        parse_entry({"name": "identity", "params": {"c": 1}})
    with pytest.raises(ConfigError):
        parse_entry({"name": "nope"})
    with pytest.raises(ConfigError):
        parse_entry({"expr": "z", "name": "identity"})
    with pytest.raises(ConfigError):
        parse_entry({"surprise": 1})
    with pytest.raises(ConfigError):
        parse_entry("identity")


def test_descriptor_harmonic_variants():
    z = np.array([0.2, 0.1 - 0.2j])
    f = parse_descriptor({"h": {"name": "identity"}, "g": {"expr": "0.15z^2"}})
    np.testing.assert_allclose(f(z), z + np.conj(0.15 * z**2), rtol=1e-12)
    f = parse_descriptor({"h": {"name": "identity"}, "omega": {"expr": "0.3z"}})
    np.testing.assert_allclose(f(z), z + np.conj(0.15 * z**2), rtol=1e-9)
    f = parse_descriptor({"h": {"name": "koebe"}})
    assert f.g is ZERO


def test_descriptor_rejections():
    with pytest.raises(ConfigError):
        parse_descriptor({"g": {"expr": "0.1z"}})  # no h
    with pytest.raises(ConfigError):
        parse_descriptor({"h": {"name": "identity"}, "g": {"expr": "z"},
                          "omega": {"expr": "z"}})
    with pytest.raises(ConfigError):
        parse_descriptor({"h": {"name": "identity"}, "extra": 1})
    with pytest.raises(ConfigError):
        parse_descriptor([1, 2])


def test_load_descriptor_file(tmp_path):
    p = tmp_path / "map.json"
    p.write_text(json.dumps({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}))
    f = load_descriptor(p)
    w = f.omega_derivs(np.array([0.2 + 0.1j]), 0)[0]
    np.testing.assert_allclose(w, 0.4 * (0.2 + 0.1j), rtol=1e-9)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_descriptor(bad)


def test_omega_reaching_the_unit_circle_is_a_descriptor_error():
    desc = {"h": {"name": "identity"}, "omega": {"expr": "1.2z"}}
    with pytest.raises(ConfigError, match="descriptor omega") as exc:
        parse_descriptor(desc)
    assert isinstance(exc.value.__cause__, NotSensePreservingError)
