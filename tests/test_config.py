"""The declared config of every command and the one reader that checks it:
shipped configs read cleanly, and a missing, mistyped, out-of-range or
unknown field exits 2 naming its dotted path before any engine runs or any
file is written."""

import ast
import contextlib
import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volspline import cli, config as cf, priors as pr, regression as rg
from volspline.bspline import SplineError, make_basis

REPO = Path(__file__).resolve().parents[1]
SHIPPED = {
    "basis_fig.json": "basis",
    "regress_demo.json": "regress",
    "slv_flat_smile.json": "slv-calibrate",
    "surface_synthetic.json": "surface-calibrate",
    "pde_ratio.json": "pde-evolve",
}
LOGNORMAL = {"type": "lognormal", "forward": 100.0, "total_variance": 0.04}


def _shipped(name: str) -> dict:
    return json.loads((REPO / "configs" / name).read_text(encoding="utf-8"))


def _perfbench_priors() -> dict:
    """The SSVI and Bachelier priors of perfbench's surface workload, read from its source."""
    tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    assigns = [node for node in tree.body if isinstance(node, ast.Assign) and len(node.targets) == 1]
    return {a.targets[0].id: ast.literal_eval(a.value) for a in assigns if a.targets[0].id.endswith("_PRIOR")}


@pytest.fixture(scope="module")
def surface_file(tmp_path_factory) -> Path:
    """A surface.json written by surface-calibrate from the shipped config."""
    out = tmp_path_factory.mktemp("surface") / "out"
    config = dict(_shipped("surface_synthetic.json"), quotes=str(REPO / "configs" / "quotes_synthetic.csv"))
    path = out.parent / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["surface-calibrate", "--config", str(path), "--out", str(out)]) == 0
    return out / "surface.json"


# ---------------------------------------------------------------------------
# every shipped config reads against its command's declaration
# ---------------------------------------------------------------------------

def test_every_shipped_config_reads_against_its_declaration():
    assert {p.name for p in (REPO / "configs").glob("*.json")} == set(SHIPPED)
    for name, command in SHIPPED.items():
        cf.read(_shipped(name), cli.COMMANDS[command][1])


def test_perfbench_priors_read_against_the_prior_declaration():
    priors = _perfbench_priors()
    assert set(priors) == {"SSVI_PRIOR", "BACHELIER_PRIOR"}
    for prior in priors.values():
        assert cf.read(prior, pr.PRIOR, "prior")["type"] == prior["type"]
        cf.read(dict(_shipped("surface_synthetic.json"), prior=prior), cli.SURFACE_CALIBRATE)


def test_a_written_surface_file_reads_against_its_declaration(surface_file):
    doc = json.loads(surface_file.read_text(encoding="utf-8"))
    assert set(doc) == {"prior", "coordinate", "config", "slices"}
    read = cf.read(doc, cli.SURFACE_FILE, "surface")
    assert read["coordinate"] == "log-moneyness" and len(read["slices"]) == 4


# ---------------------------------------------------------------------------
# each defect the declarations mend exits 2 naming the field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "command, config, setting, path",
    [
        ("pde-evolve", "pde_ratio.json", "knot=10", "knot"),
        ("pde-evolve", "pde_ratio.json", "stepz=5", "stepz"),
        ("pde-evolve", "pde_ratio.json", "local_variance.valu=5", "local_variance.valu"),
        ("slv-calibrate", "slv_flat_smile.json", "particle=500", "particle"),
        ("slv-calibrate", "slv_flat_smile.json", "reprice.path=1000", "reprice.path"),
        ("slv-calibrate", "slv_flat_smile.json", "constraints.forward_variances=false", "constraints.forward_variances"),
        ("surface-calibrate", "surface_synthetic.json", "mod=lsq", "mod"),
        ("surface-calibrate", "surface_synthetic.json", "grid_siz=3", "grid_siz"),
        ("surface-calibrate", "surface_synthetic.json", "prior.total_varianc=0.1", "prior.total_varianc"),
        # a JSON true is not an integer, 10.7 is not one either, and a string is not a number
        ("pde-evolve", "pde_ratio.json", "steps=true", "steps"),
        ("pde-evolve", "pde_ratio.json", "steps=10.7", "steps"),
        ("pde-evolve", "pde_ratio.json", 's0="100"', "s0"),
        ("surface-calibrate", "surface_synthetic.json", "prior.type=student", "prior.type"),
        ("surface-calibrate", "surface_synthetic.json",
         'quotes=[{"maturity": 1.0, "strike": 100.0, "bid": 7.9, "ask": 8.1, "type": "calls"}]', "quotes[0].type"),
        ("regress", "regress_demo.json",
         'constraints=[{"kind": "value_ge", "x": 0.0, "value": -1.0, "derivv": 1}]', "constraints[0].derivv"),
        # a truncation above an order exited 4, and no orders wrote nothing and exited 0
        ("basis", "basis_fig.json", "truncation=9", "truncation"),
        ("basis", "basis_fig.json", "orders=[]", "orders"),
        # a knot repeated more often than the lowest order allows exited 4
        ("basis", "basis_fig.json", "knots=[0,1,1,1,1,1,2]", "knots"),
        ("basis", "basis_fig.json", 'knots={"start": 1.0, "stop": 1.0, "count": 3}', "knots"),
    ],
)
def test_a_config_defect_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, command, config, setting, path):
    monkeypatch.chdir(REPO)  # the shipped surface config names its quotes file relative to the root
    out = tmp_path / "out"
    argv = [command, "--config", str(REPO / "configs" / config), "--out", str(out), "--seed", "1", "--set", setting]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and repr(path) in err
    assert not out.exists()


@pytest.mark.parametrize("forwards", [[1, 2, 3], [[1.0, 100.0], [0.5, 100.0]]])
def test_a_forward_curve_that_is_not_increasing_rows_exits_2(tmp_path, capsys, forwards):
    # [1, 2, 3] escaped as an IndexError; times out of order reached np.interp
    config = {"prior": LOGNORMAL, "forwards": forwards, "quotes": str(REPO / "configs" / "quotes_synthetic.csv")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["surface-calibrate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: config field 'forwards' must ")
    assert not (tmp_path / "out").exists()


def test_library_readers_name_the_field_in_their_own_error():
    basis = make_basis(np.linspace(-1.0, 1.0, 8), 2, 1)
    with pytest.raises(SplineError, match=r"'derivv' is unknown.*'constraints\[0\]\.derivv'"):
        rg.shape_constraints(basis, {"kind": "value_ge", "x": 0.0, "value": -1.0, "derivv": 1})
    with pytest.raises(pr.PriorError, match=r"'total_varianc' is unknown.*'prior\.total_varianc'"):
        pr.prior_from_json({"type": "lognormal", "forward": 100.0, "total_varianc": 0.04})
    with pytest.raises(pr.PriorError, match=r"'forward_curve' must"):
        pr.prior_from_json(dict(_perfbench_priors()["SSVI_PRIOR"], forward_curve=[[1.0, 100.0], [0.5, 100.0]]))


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_a_sample_csv_header_is_a_first_line_that_is_not_two_numbers(tmp_path, header):
    # a letter in the first line (the e of 1e-3) used to mark it as a header
    rows = "1e-3,0.5\n" + "".join(f"{0.1 * i!r},{0.2 * i!r}\n" for i in range(1, 8))
    path = tmp_path / "sample.csv"
    path.write_text(header + rows, encoding="utf-8")
    sample = cli._load_sample(str(path))
    assert sample.n == 8 and sample.x[0] == 1e-3 and sample.y[0] == 0.5


@pytest.mark.parametrize("text", ["", "\n\n", "x,y\n"])
def test_a_sample_without_rows_exits_2_naming_it(tmp_path, capsys, text):
    # an empty or header-only file reached rg.Sample and exited 4
    path, out = tmp_path / "sample.csv", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    argv = ["regress", "--config", str(REPO / "configs" / "regress_demo.json"), "--out", str(out), "--set", f"sample={path}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: config field 'sample' must hold at least one x,y row, got none in ")
    assert not out.exists()


@pytest.mark.parametrize("text", ["1.0,2.0\n1.0,3.0\n", "x,y\n1.0,2.0\n"])
def test_a_sample_without_spread_exits_2_naming_it(tmp_path, capsys, text):
    # x values that are all equal put every knot at one point: make_basis refused it and exited 4
    path, out = tmp_path / "sample.csv", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    argv = ["regress", "--config", str(REPO / "configs" / "regress_demo.json"), "--out", str(out), "--set", f"sample={path}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: config field 'sample' must spread its x values over distinct knots, ")
    assert not out.exists()


def test_reader_kinds():
    assert cf.read(40.0, cf.INTEGER) == 40 and type(cf.read(40.0, cf.INTEGER)) is int
    assert cf.read(3, cf.NUMBER) == 3.0 and type(cf.read(3, cf.NUMBER)) is float
    for value, kind in [(True, cf.INTEGER), (10.7, cf.INTEGER), ("100", cf.NUMBER), (False, cf.NUMBER),
                        (0, cf.BOOLEAN), ([[1.0, 2.0], [3.0]], cf.array(2)), ([1.0, True], cf.array())]:
        with pytest.raises(cf.ConfigError, match=r"config field 'x' must be "):
            cf.read(value, kind, "x")
    with pytest.raises(cf.ConfigError, match=r"^the config must be an object, got \[\]$"):
        cf.read([], cli.PDE_EVOLVE)


# ---------------------------------------------------------------------------
# the property: every declared field, dropped, mistyped or misspelled
# ---------------------------------------------------------------------------

# values that a field of each kind does not take; the other kinds are lists,
# objects, enumerations and alternatives, none of which takes true or null
WRONG = {
    id(cf.NUMBER): ["100", True, None, [1.0]],
    id(cf.INTEGER): [10.7, True, "3", None],
    id(cf.BOOLEAN): [0, "false", None, 1.0],
    id(cf.STRING): [5, True, None, ["x"]],
}


def _declared(kind: cf.Kind, value, path: str, keys: tuple):
    """``(path, field, keys)`` for every field declared in ``value``, ``keys``
    leading from the document to the object that holds the field."""
    parts = kind.parts
    if "kinds" in parts:
        kind = next(k for k in parts["kinds"] if k.accepts(value))
        yield from _declared(kind, value, path, keys)
    elif "item" in parts:
        for i, item in enumerate(value):
            yield from _declared(parts["item"], item, f"{path}[{i}]", keys + (i,))
    elif "fields" in parts or "tag" in parts:
        tag = {parts["tag"]: cf.Field(cf.STRING)} if "tag" in parts else {}
        fields = parts.get("fields") or {**tag, **parts["variants"][value[parts["tag"]]]}
        for name, field in fields.items():
            at = f"{path}.{name}" if path else name
            yield at, field, keys
            if name in value:
                yield from _declared(field.kind, value[name], at, keys + (name,))


def _documents(surface_file: Path):
    """``(command, config, document, declaration, root)``: the command's
    config holds the document, or names the file that does."""
    surface = dict(_shipped("surface_synthetic.json"), quotes=str(REPO / "configs" / "quotes_synthetic.csv"))
    ssvi = dict(_perfbench_priors()["SSVI_PRIOR"], forward_curve=[[0.5, 100.0], [1.0, 100.0]])
    quote = {"maturity": 1.0, "strike": 100.0, "type": "put", "bid": 7.9, "ask": 8.1}
    constraints = ["convex", {"kind": "value_ge", "x": 0.0, "value": -1.0, "deriv": 1},
                   {"kind": "limit_le", "side": "+inf", "value": 2.0}]
    affine = {"type": "affine", "intercept": 360.0, "slope": 0.2}
    configs = [
        ("basis", _shipped("basis_fig.json")),
        ("regress", dict(_shipped("regress_demo.json"), constraints=constraints, grid={"start": -1.0, "stop": 1.0})),
        ("slv-calibrate", _shipped("slv_flat_smile.json")),
        ("surface-calibrate", surface),
        ("surface-calibrate", {"prior": ssvi, "forwards": ssvi["forward_curve"], "quotes": [quote], "maturities": [0.5]}),
        ("surface-calibrate", dict(surface, prior=_perfbench_priors()["BACHELIER_PRIOR"])),
        ("pde-evolve", _shipped("pde_ratio.json")),
        ("pde-evolve", dict(_shipped("pde_ratio.json"), local_variance=affine, base_variance=440.0)),
        ("validate-surface", {"surface": str(surface_file), "grids": {"n_strikes": 400, "n_density": 1000}}),
    ]
    docs = [(command, None, config, cli.COMMANDS[command][1], "") for command, config in configs]
    doc = json.loads(surface_file.read_text(encoding="utf-8"))
    return docs + [("validate-surface", {"surface": None}, doc, cli.SURFACE_FILE, "surface")]


def _mutations(documents):
    """Every applicable mutation of every declared field of every document."""
    for command, config, doc, declaration, root in documents:
        cf.read(doc, declaration, root)  # the unmutated document reads
        for path, field, keys in _declared(declaration, doc, root, ()):
            node = doc
            for key in keys:
                node = node[key]
            name = path.rsplit(".", 1)[-1]
            siblings = set(_siblings(declaration, doc, keys))
            if field.default is cf.REQUIRED and name in node:
                yield "drop", command, config, doc, keys, name, path, None
            yield "wrong", command, config, doc, keys, name, path, WRONG.get(id(field.kind), [True, None])
            edits = [name[:-1], name + name[-1], "x" + name, name.replace("_", ""), name.upper()]
            yield "misspell", command, config, doc, keys, name, path, [e for e in edits if e and e not in siblings]


def _siblings(declaration, doc, keys):
    for path, _, at in _declared(declaration, doc, "", ()):
        if at == keys:
            yield path.rsplit(".", 1)[-1]


@pytest.fixture(scope="module")
def mutations(surface_file):
    return list(_mutations(_documents(surface_file)))


@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_declared_field_dropped_mistyped_or_misspelled_exits_2(tmp_path_factory, mutations, data):
    work = tmp_path_factory.mktemp("mutations")
    for n, (how, command, config, doc, keys, name, path, choices) in enumerate(mutations):
        doc = copy.deepcopy(doc)
        node = doc
        for key in keys:
            node = node[key]
        if how == "drop":
            del node[name]
        elif how == "wrong":
            node[name] = data.draw(st.sampled_from(choices))
        else:
            misspelled = data.draw(st.sampled_from(choices))
            node[misspelled] = node.pop(name, 1)
            path = path[: len(path) - len(name)] + misspelled
        if config is None:
            config = doc
        else:  # the document is the file the config names
            (work / f"doc{n}.json").write_text(json.dumps(doc), encoding="utf-8")
            config = {**config, "surface": str(work / f"doc{n}.json")}
        (work / f"config{n}.json").write_text(json.dumps(config), encoding="utf-8")
        out, err = work / f"out{n}", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(work / f"config{n}.json"), "--out", str(out), "--seed", "1"])
        assert code == 2 and err.getvalue().startswith("error: config: "), (how, command, path, err.getvalue())
        said = {"drop": "is required", "wrong": "must be", "misspell": "is unknown"}[how]
        assert repr(path) in err.getvalue() and said in err.getvalue(), (how, command, path, err.getvalue())
        assert not out.exists(), (how, command, path)
