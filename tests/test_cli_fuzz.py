"""The command line's error contract on generated configs.

Every run ends with exit 0, 2 (config error), 3 (numerical failure) or
4 (i/o error), never with an exception; a run whose outputs section is
usable leaves a manifest with a status. The memory guards see a fixed
64 MiB of free memory, so a huge grid is refused before anything of its
size is allocated.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from weakkam import aubry, geometry, kernel
from weakkam.cli import main

FREE = 64 << 20
COMMANDS = ["critical", "weakkam", "barrier", "aubry", "quotient", "dimension",
            "regularize", "chains", "mane-compare", "ferry", "all"]

# (command, config tree, exit code, text stderr must hold)
PINNED = [
    ("critical", {"grid": {"dim": 1, "n": 16.5}}, 2, "grid.n"),
    ("critical", {"grid": {"dim": 1, "n": 16.0}}, 2, "grid.n"),
    ("regularize", {"grid": {"dim": 1, "n": 16}, "regularizer": {"stages": 2.5}}, 2,
     "regularizer.stages"),
    ("chains", {"model": {"family": "mane", "field": {"name": "sin_gradient"}},
                "grid": {"dim": 1, "n": 16}, "dynamics": {"substeps": 2.5}}, 2,
     "dynamics.substeps"),
    ("critical", {"model": {"family": "mechanical", "potential": {"k": "ab"}},
                  "grid": {"dim": 1, "n": 16}}, 2, "potential.k"),
    ("critical", {"model": {"family": "mechanical", "potential": {"amp": "x"}},
                  "grid": {"dim": 1, "n": 16}}, 2, "potential.amp"),
    ("critical", {"model": {"family": "mechanical", "potential": {"k": [1.5]}},
                  "grid": {"dim": 1, "n": 16}}, 2, "potential.k"),
    ("critical", {"model": {"family": "mane", "field": {"name": "sin_gradient", "k": "z"}},
                  "grid": {"dim": 1, "n": 16}}, 2, "field.k"),
    ("critical", {"model": {"family": "mane", "field": {"name": "sin_gradient", "k": 1.5}},
                  "grid": {"dim": 1, "n": 16}}, 2, "field.k"),
    ("critical", {"model": {"family": "mane", "field": {"k": 1}},
                  "grid": {"dim": 1, "n": 16}}, 2, "field.name"),
    ("critical", {"grid": {"dim": 2, "n": 1000000}}, 3, "memory"),
    # an eps past the whole torus joins every cell to every cell
    ("chains", {"model": {"family": "mane", "field": {"name": "zero"}},
                "grid": {"dim": 1, "n": 8}, "dynamics": {"eps": 1e308}}, 0, ""),
    # a points value that is no path: not opened, not taken for a file descriptor
    ("ferry", {"ferry": {"points": ["a"]}}, 2, "ferry.points"),
    ("ferry", {"ferry": {"points": {"x": 1}}}, 2, "ferry.points"),
    ("ferry", {"ferry": {"points": 2}}, 2, "ferry.points"),
    ("ferry", {"ferry": {"points": True}}, 2, "ferry.points"),
    # a misspelt ferry key fails instead of leaving the ferry stage out
    ("all", {"grid": {"dim": 1, "n": 16}, "ferry": {"pionts": "x.csv"}}, 2, "ferry"),
    # so does a misspelt model parameter, instead of running another model
    ("all", {"model": {"family": "mechanical", "potential": {"name": "cosine", "kk": 1}},
             "grid": {"dim": 1, "n": 16}}, 2, "kk"),
]

junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                 st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2))
# a radius or time step: "auto", a usual one, or one from the whole positive float range
extreme = st.one_of(st.sampled_from(["auto", 0.1, 0.2, 0.3]),
                    st.floats(min_value=1e-12, max_value=1e300))
valid_trees = st.fixed_dictionaries({
    "model": st.fixed_dictionaries({
        "family": st.sampled_from(["kinetic", "mechanical", "mane"]),
        "potential": st.fixed_dictionaries(
            {"name": st.sampled_from(["cosine", "zero"])},
            optional={"k": st.lists(st.integers(-2, 2), min_size=1, max_size=2),
                      "amp": st.floats(-2, 2)}),
        "field": st.fixed_dictionaries(
            {"name": st.sampled_from(["zero", "constant", "sin_gradient", "neg_grad", "table"])},
            optional={"k": st.integers(-2, 2),
                      "components": st.lists(st.floats(-2, 2), min_size=1, max_size=2),
                      "path": st.just("absent.csv")}),
    }),
    "grid": st.fixed_dictionaries({"dim": st.sampled_from([1, 2]), "n": st.integers(4, 12)}),
    "kernel": st.fixed_dictionaries({}, optional={"tau": extreme}),
    "aubry": st.fixed_dictionaries({}, optional={"eta_mode": extreme, "merge_threshold": extreme}),
    "dynamics": st.fixed_dictionaries({}, optional={
        "dt": extreme, "eps": extreme, "substeps": st.integers(1, 3)}),
    "regularizer": st.fixed_dictionaries({}, optional={"stages": st.integers(1, 3)}),
    "ferry": st.fixed_dictionaries({}, optional={
        "points": st.sampled_from(["points.csv", "absent.csv"]), "p": st.floats(0.5, 3.0)}),
    "outputs": st.fixed_dictionaries({}, optional={
        "formats": st.sampled_from([["csv"], ["json"], ["csv", "json"]])}),
    "seed": st.integers(0, 2**70),
})
# (section, key) of every leaf a tree may get wrong; potential and field
# are the model's
LEAVES = [("model", "family"), ("model", "potential"), ("model", "field"),
          ("potential", "name"), ("potential", "k"), ("potential", "amp"),
          ("field", "name"), ("field", "k"), ("field", "components"), ("field", "path"),
          ("grid", "dim"), ("grid", "n"), ("kernel", "tau"), ("kernel", "stencil_radius"),
          ("aubry", "eta_mode"), ("aubry", "merge_threshold"), ("dynamics", "dt"),
          ("dynamics", "eps"), ("dynamics", "substeps"), ("regularizer", "stages"),
          ("ferry", "points"), ("ferry", "p"), ("outputs", "formats")]


@st.composite
def trees(draw):
    """A config tree of valid types, or one with a single leaf of the wrong type."""
    tree = draw(valid_trees)
    # a whole number of cells that fits the torus, or any radius
    n = tree["grid"]["n"]
    tree["kernel"]["stencil_radius"] = draw(st.one_of(
        st.integers(1, (n - 1) // 2).map(lambda cells: cells / n), extreme))
    if draw(st.booleans()):
        section, key = draw(st.sampled_from(LEAVES))
        parent = tree["model"] if section in ("potential", "field") else tree
        parent[section][key] = draw(junk)
    return tree


def run(command, tree, tmp):
    """Exit code, stderr and manifest (None if absent) of one CLI run on
    tree, with its outputs and its file names placed in tmp."""
    tree = json.loads(json.dumps(tree))
    tree.setdefault("outputs", {})["directory"] = os.path.join(tmp, "out")
    with open(os.path.join(tmp, "points.csv"), "w") as f:
        f.write("0,0\n0.25,0.5\n0.5,0\n")
    for section, key in (("ferry", "points"), ("field", "path")):
        spec = (tree.get("model", {}) if section == "field" else tree).get(section)
        if isinstance(spec, dict) and isinstance(spec.get(key), str):
            spec[key] = os.path.join(tmp, spec[key])
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as f:
        json.dump(tree, f)
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        for module in (kernel, aubry, geometry):
            stack.enter_context(mock.patch.object(module, "available_memory", lambda: FREE))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main([command, "--config", path])
    manifest = os.path.join(tmp, "out", "manifest.json")
    if not os.path.exists(manifest):
        return code, err.getvalue(), None
    with open(manifest) as f:
        return code, err.getvalue(), json.load(f)


def usable_outputs(tree) -> bool:
    formats = tree.get("outputs", {}).get("formats", ["csv", "json"])
    return (isinstance(formats, list) and bool(formats)
            and all(f in ("csv", "json") for f in formats))


def pinned(test):
    for command, tree, _, _ in PINNED:
        test = example(command=command, tree=tree)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), tree=trees())
@pinned
def test_cli_exits_cleanly_on_any_config(command, tree):
    with tempfile.TemporaryDirectory() as tmp:
        code, err, manifest = run(command, tree, tmp)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if usable_outputs(tree):
        assert manifest is not None and manifest["status"] == ("ok" if code == 0 else "error")


@pytest.mark.parametrize("command, tree, code, text", PINNED)
def test_cli_pinned_configs_exit_with_their_code_and_a_manifest(tmp_path, command, tree,
                                                                code, text):
    got, err, manifest = run(command, tree, str(tmp_path))
    assert got == code and text in err
    assert manifest["status"] == ("ok" if code == 0 else "error")
