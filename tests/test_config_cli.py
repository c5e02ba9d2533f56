"""Config schema, pipeline artifacts, CLI exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from weakkam import (ConfigError, ArtifactError, NumericalError, aubry, build_grid, chains,
                     config, critical_value, csvformat, geometry, pipeline, representation_check,
                     zero_field)
from weakkam.cli import main
from weakkam.config import ExperimentConfig
from weakkam.pipeline import load_points_csv, run_pipeline

from oracles import csv_text


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"grid": {"dim": 1, "n": 64},
           "outputs": {"directory": str(tmp_path / "out")}}
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.raw["grid"] == {"dim": 1, "n": 256}
    assert cfg.raw["kernel"]["tau"] == "auto"
    g = cfg.grid()
    K = cfg.kernel(g, cfg.lagrangian(g))
    assert K.tau == g.spacing
    assert K.stencil_radius == pytest.approx(4 * g.spacing)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"gird": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"grid": {"dims": 1}})
    with pytest.raises(ConfigError, match="ferry"):
        ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 16}, "ferry": {"pionts": "x.csv"}})
    # the model's maps too: a misspelt parameter would run another model
    for model, key in [
            ({"family": "mechanical", "potential": {"name": "cosine", "kk": 1}}, "kk"),
            ({"family": "kinetic", "famly": 1}, "famly"),
            ({"family": "mane", "field": {"name": "sin_gradient", "kk": 3}}, "kk"),
            ({"family": "mane", "field": {"name": "neg_grad", "potential": {"amps": 2}}}, "amps")]:
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"model": model})


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"grid": {"dim": 3, "n": 8}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 3}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kernel": {"tau": -0.5}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": "zero"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"outputs": {"formats": ["yaml"]}})
    # only the string "auto" stands for a default; JSON's null, NaN and
    # infinities are no numbers here
    for section, key in [("kernel", "tau"), ("kernel", "stencil_radius"),
                         ("aubry", "merge_threshold"), ("dynamics", "dt"),
                         ("dynamics", "eps"), ("solver", "tol"), ("aubry", "eta_mode")]:
        for bad in (None, float("nan"), float("inf"), -float("inf"), 10**400):
            with pytest.raises(ConfigError, match=f"{section}.{key} must be a finite number"):
                ExperimentConfig.from_dict({section: {key: bad}})
    for bad in (None, 0, -1.0, float("nan"), float("inf"), True):
        with pytest.raises(ConfigError, match="ferry.p must be a positive number"):
            ExperimentConfig.from_dict({"ferry": {"p": bad}})
    # counts are integers: no bool, no integral float, none beyond the float range
    for section, key in [("grid", "n"), ("dynamics", "substeps"), ("regularizer", "stages")]:
        for bad in (16.5, 16.0, True, "8", None, 10**400):
            with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
                ExperimentConfig.from_dict({section: {key: bad}})
    for bad in (1.0, True, "1"):
        with pytest.raises(ConfigError, match="grid.dim must be 1 or 2"):
            ExperimentConfig.from_dict({"grid": {"dim": bad}})
    # the seed feeds numpy's generator, which takes no negative integer
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        ExperimentConfig.from_dict({"seed": -1})
    assert ExperimentConfig.from_dict({"seed": 2**70, "kernel": {"tau": 10**300}}).seed() == 2**70


def test_from_file_errors(tmp_path):
    with pytest.raises(ArtifactError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(arr)


def test_critical_stage_kinetic(tmp_path):
    cfg = ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 64},
                                      "outputs": {"directory": str(tmp_path / "o")}})
    manifest = run_pipeline(cfg, ["critical"])
    assert manifest["status"] == "ok"
    assert list(manifest["stages"]) == ["critical"]
    # the problem size: N points and the S offsets of a four-cell radius
    assert manifest["stages"]["critical"]["points"] == 64
    assert manifest["stages"]["critical"]["stencil_offsets"] == 9
    data = json.loads((tmp_path / "o" / "critical.json").read_text())
    assert abs(data["c"]) <= 5.0 / 64
    assert data["tau"] == pytest.approx(1.0 / 64)


def test_quotient_pipeline_pendulum(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "mechanical", "potential": {"name": "cosine", "k": [1]}},
        "grid": {"dim": 1, "n": 64},
        "outputs": {"directory": str(tmp_path / "o")}})
    manifest = run_pipeline(cfg, ["dimension", "weakkam"])
    assert manifest["status"] == "ok"
    data = json.loads((tmp_path / "o" / "quotient.json").read_text())
    assert data["class_count"] == 1
    # the manifest alone records the Aubry size, class count and covering counts
    stages = manifest["stages"]
    assert stages["aubry"]["aubry_size"] == 1
    assert stages["quotient"]["class_count"] == 1
    counts = (tmp_path / "o" / "dimension.csv").read_text().splitlines()[1:]
    assert stages["dimension"]["covering_counts"] == [int(r.split(",")[1]) for r in counts]
    # the weak KAM stage records its critical cells and certified residual
    weakkam = json.loads((tmp_path / "o" / "manifest.json").read_text())["stages"]["weakkam"]
    assert weakkam["critical_cells"] == 1
    assert weakkam["residual"] == json.loads(
        (tmp_path / "o" / "weakkam.json").read_text())["residual"]
    assert weakkam["residual"] <= 1e-9
    barrier = manifest["stages"]["barrier"]
    # the self-loop at the hyperbolic fixed point is the only flat cycle
    assert barrier == {"files": ["barrier.csv"], "wall_time_s": barrier["wall_time_s"],
                       "peak_rss_mb": barrier["peak_rss_mb"],
                       "representatives": 1, "critical_edges": 1, "invariant_axes": []}
    # prerequisite stages ran and left their artifacts
    for stage in ("critical", "barrier", "aubry", "quotient", "dimension"):
        assert stage in manifest["stages"]


# one row per block, rows of 1 (7 entries on |A| = 5) and one block
@pytest.mark.parametrize("block", [1, 7, 25])
def test_quotient_stage_class_diameter(monkeypatch, block):
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    cfg = ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 8},
                                      "aubry": {"merge_threshold": 0.25}})
    vals = np.random.default_rng(3).integers(0, 4, (8, 8)) / 8
    np.fill_diagonal(vals, 0.0)
    ids = np.array([6, 1, 3, 0, 4])
    state = {"grid": cfg.grid(), "h": aubry.SemiMetric(values=vals),
             "A": aubry.AubrySet(indices=ids, self_barrier=np.zeros(5),
                                 labels=["other"] * 5, threshold=0.0)}
    _, artifacts = pipeline._stage_quotient(cfg, state)
    Q, delta = state["Q"], state["delta"]
    # classes chained past the threshold: {0, 1, 3, 4} has diameter 0.375,
    # and the largest delta across classes is larger still
    assert Q.classes == [[0, 1, 3, 4], [6]]
    want = max(float(np.max(delta.values[np.ix_(m, m)])) for m in Q.classes)
    assert want == 0.375 < float(np.max(delta.values[np.ix_(ids, ids)]))
    data = pipeline._jsonify(artifacts["quotient.json"])
    assert data["max_class_diameter_delta"] == want


def test_quotient_stage_checks_the_representation_on_h():
    cfg = ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 8}})
    # a nonzero diagonal: the check's residual on h is |h(x,x) + h(y,y)|,
    # twice that if it read delta in place of h
    vals = np.random.default_rng(6).random((8, 8))
    h = aubry.SemiMetric(values=vals.copy())
    A = aubry.AubrySet(indices=np.arange(8), self_barrier=np.diagonal(vals).copy(),
                       labels=["other"] * 8, threshold=1.0)
    want = representation_check(aubry.SemiMetric(values=vals), None, A).max_residual
    state = {"grid": cfg.grid(), "h": h, "A": A}
    _, artifacts = pipeline._stage_quotient(cfg, state)
    data = pipeline._jsonify(artifacts["quotient.json"])
    assert data["representation_max_residual"] == float(pipeline.FLOAT_FMT % want) > 0
    # delta is read from h, which stays as it was
    assert np.array_equal(state["delta"].values, vals + vals.T)
    assert np.array_equal(h.values, vals)


def test_pipeline_holds_no_dense_float_matrix(tmp_path):
    # every cell of the 2-d kinetic grid is Aubry, so the quotient and the
    # coverings read all N x N entries of delta, in row blocks from the
    # barrier's factors; the byte-wide level matrix of the coverings is
    # the one N x N array, so the traced peak stays below half of one
    # N x N float array
    cfg = ExperimentConfig.from_dict({"model": {"family": "kinetic"},
                                      "grid": {"dim": 2, "n": 48},
                                      "outputs": {"directory": str(tmp_path)}})
    N = 48 * 48
    tracemalloc.start()
    try:
        manifest = run_pipeline(cfg, ["dimension"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest["stages"]["aubry"]["aubry_size"] == N
    assert peak < 0.5 * 8 * N * N


def test_pipeline_holds_no_dense_barrier_on_a_mechanical_slab(tmp_path):
    # the paper's 2-d case: only the circle x0 = 0 is Aubry, one class
    # representative per cell of it, so h is two n x N tables; a dense h
    # would be one N x N float array on its own
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "mechanical", "potential": {"name": "cosine", "k": [1, 0]}},
        "grid": {"dim": 2, "n": 48}, "outputs": {"directory": str(tmp_path)}})
    N = 48 * 48
    tracemalloc.start()
    try:
        manifest = run_pipeline(cfg, ["dimension"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest["stages"]["barrier"]["representatives"] == 48
    assert manifest["stages"]["aubry"]["aubry_size"] == 48
    assert peak < 8 * N * N


def test_matrix_rows_write_the_cell_by_cell_text(tmp_path, monkeypatch):
    vals = np.array([[0.0, -1.5e-300, np.inf], [1 / 3, 2.0**60, -0.0], [7.0, np.nan, 1e-12]])
    want = csv_text(["i", "j", "h"], [(i, j, vals[i, j]) for i in range(3) for j in range(3)])
    empty = (np.zeros(0, dtype=np.int64), [], np.zeros(0))
    # slices of one row (and rows of 3 entries gathered one at a time),
    # uneven slices of 2 rows on 3, and one slice
    for cells in (1, 18, 27):
        monkeypatch.setattr(pipeline, "CSV_SLICE_CELLS", cells)
        chunks = [empty, *pipeline._matrix_rows(aubry.SemiMetric(values=vals)), empty]
        got = pipeline.write_csv(tmp_path / "rows.csv", ["i", "j", "h"], chunks)
        assert open(got, "rb").read() == want.encode()


def test_write_csv_formats_each_column_by_its_dtype(tmp_path):
    cols = (np.array([-3, 2**60]), np.array([0, 255], dtype=np.uint8), np.array([True, False]),
            np.array([0.1, -np.inf], dtype=np.float32), ["stationary", "other"], [7, -1])
    header = ["int", "uint", "bool", "float", "str", "list"]
    got = pipeline.write_csv(tmp_path / "kinds.csv", header, [cols])
    assert open(got, "rb").read() == csv_text(header, zip(*cols)).encode()


def test_write_csv_holds_its_tables_and_about_one_slice():
    # the digit tables, built from uint8 character codes (a float64 scratch
    # array of the 10,000 four-digit values is 78 KiB), then a u.csv-shaped
    # chunk of 4,096 rows written in two slices of 2,048 rows (17 words a
    # row: 136 KiB of word columns and 136 KiB of table); the writer builds
    # its own tables and frees them with the file
    n = 4096
    rng = np.random.default_rng(8)
    cols = (np.arange(n), rng.random(n), rng.random(n), rng.standard_normal(n))
    tracemalloc.start()
    try:
        csvformat.digit_tables()
        tables = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        pipeline.write_csv(os.devnull, ["index", "x0", "x1", "value"], [cols])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 118 KiB and 366 KiB traced with numpy 2.4
    assert tables < 136 * 1024
    assert peak < 420 * 1024
    assert held < 16 * 1024


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    chunk = (np.arange(3), np.zeros(2), ["a", "b", "c"])
    with pytest.raises(ArtifactError, match=r"short\.csv.*\(3,\), \(2,\), \(3,\)"):
        pipeline.write_csv(tmp_path / "short.csv", ["i", "x", "label"], [chunk])


def test_write_csv_refuses_a_chunk_unlike_its_header(tmp_path):
    chunk = (np.arange(3), np.zeros(3))
    with pytest.raises(ArtifactError, match=r"wide\.csv.* 2 columns for 3 header fields"):
        pipeline.write_csv(tmp_path / "wide.csv", ["i", "x", "label"], [chunk])


# 256-row column chunks in slices of one row, in uneven slices (25 rows of
# 4 columns, 33 of 3, ...), in slices of 256 rows of 4 columns (341 of 3),
# and in one slice; matrix rows are gathered one slice at a time
@pytest.mark.parametrize("cells", [1, 100, 1024, pipeline.CSV_SLICE_CELLS])
def test_every_csv_matches_the_cell_by_cell_text(tmp_path, monkeypatch, cells):
    # all on a 2-d drift model with ferry points writes all 8 kinds of CSV;
    # each is checked against its chunks written cell by cell
    monkeypatch.setattr(pipeline, "CSV_SLICE_CELLS", cells)
    pts = tmp_path / "pts.csv"
    pts.write_text("x0,x1\n" + "".join(f"{k / 7},{(k * k % 7) / 7}\n" for k in range(7)))
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "mane", "field": {"name": "sin_gradient"}},
        "grid": {"dim": 2, "n": 16}, "ferry": {"points": str(pts)},
        "outputs": {"directory": str(tmp_path / "o")}})
    seen, write = {}, pipeline.write_csv

    def write_csv(path, header, chunks):
        chunks = list(chunks)
        seen[os.path.basename(path)] = csv_text(header, [
            row for chunk in chunks for row in zip(*chunk)])
        return write(path, header, chunks)

    monkeypatch.setattr(pipeline, "write_csv", write_csv)
    run_pipeline(cfg, ["all"])
    assert sorted(seen) == ["aubry.csv", "barrier.csv", "chain_set.csv", "dimension.csv",
                            "ferry.csv", "quotient.csv", "regularize.csv", "u.csv"]
    integer_columns = {"index", "i", "j", "class_id", "member_index", "covering_count"}
    for name, want in seen.items():
        got = (tmp_path / "o" / name).read_text()
        assert got == want, name
        header, *rows = [line.split(",") for line in got.splitlines()]
        assert rows, name
        for k, field in enumerate(header):
            if field in integer_columns:
                assert all(row[k].lstrip("-").isdigit() for row in rows), (name, field)
    labels = {line.split(",")[-1] for line in seen["aubry.csv"].splitlines()[1:]}
    assert labels and labels <= {"stationary", "periodic", "other"}


def test_manifest_checksums_match_files(tmp_path):
    cfg = ExperimentConfig.from_dict({"grid": {"dim": 1, "n": 64},
                                      "outputs": {"directory": str(tmp_path / "o")}})
    manifest = run_pipeline(cfg, ["weakkam"])
    for name, digest in manifest["checksums"].items():
        blob = (tmp_path / "o" / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    for stage in manifest["stages"].values():
        assert stage["wall_time_s"] >= 0.0
    # a high-water mark: positive and never falling from stage to stage
    peaks = [stage["peak_rss_mb"] for stage in manifest["stages"].values()]
    assert peaks[0] > 0 and peaks == sorted(peaks)


def test_pipeline_runs_are_byte_identical(tmp_path):
    def run(sub):
        cfg = ExperimentConfig.from_dict({
            "model": {"family": "mechanical", "potential": {"name": "cosine", "k": [1]}},
            "grid": {"dim": 1, "n": 64}, "seed": 3,
            "outputs": {"directory": str(tmp_path / sub)}})
        run_pipeline(cfg, ["quotient", "weakkam"])

    run("a")
    run("b")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        if name == "manifest.json":
            continue  # holds wall times
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_comparison_requires_mane(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "kinetic"},
        "outputs": {"directory": str(tmp_path / "o")}})
    with pytest.raises(ConfigError):
        run_pipeline(cfg, ["comparison"])


def test_comparison_sin_field(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "mane", "field": {"name": "sin_gradient"}},
        "grid": {"dim": 1, "n": 64},
        "outputs": {"directory": str(tmp_path / "o")}})
    run_pipeline(cfg, ["comparison"])
    data = json.loads((tmp_path / "o" / "comparison.json").read_text())
    assert data["hausdorff_distance"] <= 2.0 / 64


def test_ferry_run_and_points_parsing(tmp_path):
    pts = tmp_path / "seg.csv"
    pts.write_text("x\n" + "\n".join(str(k / 16) for k in range(17)) + "\n")

    def ferry_config(p):
        return ExperimentConfig.from_dict({
            "ferry": {"points": str(pts), "p": p},
            "outputs": {"directory": str(tmp_path / "o")}})

    run_pipeline(ferry_config(2.0), ["ferry"])
    data = json.loads((tmp_path / "o" / "ferry.json").read_text())
    assert data["endpoint_value"] == pytest.approx(1.0 / 16)
    assert data["point_count"] == 17

    out2 = run_pipeline(ferry_config(1.0), ["ferry"], out_dir=str(tmp_path / "o2"))
    assert out2["status"] == "ok"
    data1 = json.loads((tmp_path / "o2" / "ferry.json").read_text())
    assert data1["endpoint_value"] == pytest.approx(1.0)


def test_points_csv_error_reports_line(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.0,0.0\n0.5,oops\n")
    with pytest.raises(ConfigError) as e:
        load_points_csv(f)
    assert "line 2" in str(e.value)
    g = tmp_path / "short.csv"
    g.write_text("0.0,0.0\n")
    with pytest.raises(ConfigError):
        load_points_csv(g)
    with pytest.raises(ArtifactError):
        load_points_csv(tmp_path / "nope.csv")


def test_points_csv_keeps_a_numeric_first_row(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1e-3,0.5\n0.25,0.5\n0.5,0\n")
    assert load_points_csv(f).tolist() == [[1e-3, 0.5], [0.25, 0.5], [0.5, 0.0]]
    # a first row that is no numbers is a header
    f.write_text("x,y\n0.25,0.5\n0.5,0\n")
    assert load_points_csv(f).tolist() == [[0.25, 0.5], [0.5, 0.0]]


def test_cli_success(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["critical", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: wrote")
    assert "critical" in out


def test_cli_out_override(tmp_path):
    path = write_config(tmp_path)
    code = main(["critical", "--config", path, "--out", str(tmp_path / "elsewhere")])
    assert code == 0
    assert (tmp_path / "elsewhere" / "critical.json").exists()


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, model={"family": "spiral"})
    assert main(["critical", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "kinetic" in err
    for retired in ("horizon", "max_iter"):
        path = write_config(tmp_path, solver={retired: 5})
        assert main(["critical", "--config", path]) == 2
        assert "unknown keys in config section 'solver'" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        message = f"unknown keys in config section 'solver': {[retired]}"
        assert manifest["error"]["message"] == message


def test_cli_missing_config_is_exit_4(tmp_path, capsys):
    assert main(["critical", "--config", str(tmp_path / "none.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def below_critical(K):
    cv = critical_value(K)
    return dataclasses.replace(cv, c=cv.c - 0.5)


def test_cli_numerical_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    path = write_config(
        tmp_path,
        model={"family": "mechanical", "potential": {"name": "cosine", "k": [1]}})
    # a level below the critical value leaves no weak KAM solution
    with monkeypatch.context() as m:
        m.setattr(pipeline, "critical_value", below_critical)
        assert main(["weakkam", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err
    # so are covering balls larger than the free memory
    with monkeypatch.context() as m:
        m.setattr(geometry, "available_memory", lambda: 0)
        assert main(["dimension", "--config", write_config(tmp_path)]) == 3
    assert "memory is free" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "dimension"
    # a barrier larger than the free memory is refused, not allocated
    monkeypatch.setattr(aubry, "available_memory", lambda: 0)
    assert main(["barrier", "--config", write_config(tmp_path)]) == 3
    assert "memory is free" in capsys.readouterr().err


def test_cli_chains_refuses_more_memory_than_is_free(tmp_path, capsys, monkeypatch):
    # a million cells a side: the coordinates alone would be 7.28 TiB, and
    # the stage builds no kernel whose guard would catch it first
    path = write_config(tmp_path, model={"family": "mane", "field": {"name": "sin_gradient"}},
                        grid={"dim": 2, "n": 1_000_000})
    monkeypatch.setattr(chains, "available_memory", lambda: 1 << 30)
    assert main(["chains", "--config", path]) == 3
    assert "cell coordinates and flow images need" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error"]["stage"] == "chains"
    # the guard sits in chain_graph itself too
    with pytest.raises(NumericalError, match="memory is free"):
        chains.chain_graph(zero_field(2), build_grid(2, 1_000_000), dt=0.1, eps=1.0)


def test_repeat_counts_are_capped(tmp_path, capsys):
    # past a few, each substep or stage repeats the same step: 1,000 is
    # the largest count accepted
    for section, key in [("dynamics", "substeps"), ("regularizer", "stages")]:
        assert ExperimentConfig.from_dict({section: {key: 1000}}).raw[section][key] == 1000
        with pytest.raises(ConfigError, match=f"{section}.{key} must be <= 1000, got 1001"):
            ExperimentConfig.from_dict({section: {key: 1001}})
    # from the command line, a config error before any stage runs
    path = write_config(tmp_path, regularizer={"stages": 1001})
    assert main(["regularize", "--config", path]) == 2
    assert "regularizer.stages must be <= 1000" in capsys.readouterr().err


def test_cli_output_collision_is_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    path = write_config(tmp_path, outputs={"directory": str(blocker)})
    assert main(["critical", "--config", path]) == 4


def test_cli_partial_manifest_records_error(tmp_path, monkeypatch):
    path = write_config(
        tmp_path,
        model={"family": "mechanical", "potential": {"name": "cosine", "k": [1]}})
    with monkeypatch.context() as m:
        m.setattr(pipeline, "critical_value", below_critical)
        assert main(["weakkam", "--config", path]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]["stage"] == "weakkam"
    assert manifest["error"]["type"] == "NumericalError"
    monkeypatch.setattr(aubry, "available_memory", lambda: 0)
    assert main(["barrier", "--config", write_config(tmp_path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "barrier"
    assert manifest["error"]["type"] == "NumericalError"
    assert list(manifest["stages"]) == ["critical"]


def test_cli_bad_field_table_is_exit_2(tmp_path, capsys):
    table = tmp_path / "field.csv"
    table.write_text("x0,v0\n0.1,abc\n")
    path = write_config(tmp_path, model={"family": "mane",
                                         "field": {"name": "table", "path": str(table)}})
    assert main(["chains", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]["stage"] == "chains"
    assert manifest["error"]["type"] == "ConfigError"


def test_cli_misplaced_field_table_is_exit_2(tmp_path, capsys):
    table = tmp_path / "field.csv"
    table.write_text("x0,v0\n0.75,1\n0.5,2\n0.25,3\n0,4\n")
    path = write_config(tmp_path, grid={"n": 4}, model={
        "family": "mane", "field": {"name": "table", "path": str(table)}})
    assert main(["chains", "--config", path]) == 2
    assert "row 1 has coordinates" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"]["stage"] == "chains"
    assert manifest["error"]["type"] == "ConfigError"


def test_cli_missing_field_table_is_exit_4(tmp_path):
    path = write_config(tmp_path, model={"family": "mane", "field": {
        "name": "table", "path": str(tmp_path / "absent.csv")}})
    assert main(["chains", "--config", path]) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["error"]["type"] == "ArtifactError"


def test_cli_ferry_flags(tmp_path, capsys):
    pts = tmp_path / "seg.csv"
    pts.write_text("\n".join(str(k / 8) for k in range(9)) + "\n")
    path = write_config(tmp_path)
    assert main(["ferry", "--config", path, "--points", str(pts)]) == 0
    data = json.loads((tmp_path / "out" / "ferry.json").read_text())
    assert data["endpoint_value"] == pytest.approx(0.125)
    assert main(["ferry", "--config", path, "--points", str(pts), "--p", "1"]) == 0
    data = json.loads((tmp_path / "out" / "ferry.json").read_text())
    assert data["p"] == 1.0 and data["endpoint_value"] == pytest.approx(1.0)
    # a bad --p is refused like a bad ferry.p
    capsys.readouterr()
    assert main(["ferry", "--config", path, "--points", str(pts), "--p", "-1"]) == 2
    assert "ferry.p must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("command, override", [
    ("critical", {"kernel": {"tau": None}}),
    ("critical", {"kernel": {"tau": float("nan")}}),
    ("quotient", {"aubry": {"merge_threshold": None}}),
    ("chains", {"model": {"family": "mane", "field": {"name": "sin_gradient"}},
                "dynamics": {"dt": None}}),
    ("ferry", {"ferry": {"p": float("nan")}}),
])
def test_cli_bad_number_is_exit_2_with_a_manifest(tmp_path, capsys, command, override):
    pts = tmp_path / "seg.csv"
    pts.write_text("0\n0.5\n")
    override.setdefault("ferry", {})["points"] = str(pts)
    path = write_config(tmp_path, **override)
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]["type"] == "ConfigError" and manifest["error"]["stage"] is None
    assert manifest["stages"] == {} and manifest["checksums"] == {}


def test_cli_ferry_nan_exponent_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "seg.csv"
    pts.write_text("0\n0.5\n")
    path = write_config(tmp_path)
    for p in ("nan", "inf", "0"):
        assert main(["ferry", "--config", path, "--points", str(pts), "--p", p]) == 2
        err = capsys.readouterr().err
        assert "ferry.p must be a positive number" in err and "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "error" and not (tmp_path / "out" / "ferry.json").exists()
    with pytest.raises(ConfigError, match="positive finite"):
        geometry.ferry_delta_p(np.array([[0.0], [0.5]]), float("nan"))


def test_cli_ferry_nonfinite_point_is_exit_2(tmp_path, capsys):
    pts = tmp_path / "seg.csv"
    path = write_config(tmp_path)
    for bad in ("nan", "inf", "-inf"):
        pts.write_text(f"0,0\n0.5,{bad}\n1,0\n")
        assert main(["ferry", "--config", path, "--points", str(pts)]) == 2
        err = capsys.readouterr().err
        assert "finite point coordinates" in err and "Traceback" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "error" and not (tmp_path / "out" / "ferry.json").exists()
    with pytest.raises(ConfigError, match="finite point"):
        geometry.ferry_delta_p(np.array([[0.0], [np.nan]]), 2.0)


def test_cli_mane_compare_wrong_family_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path)  # kinetic default
    assert main(["mane-compare", "--config", path]) == 2


CORE = ["critical", "weakkam", "barrier", "aubry", "quotient", "dimension", "regularize"]


@pytest.mark.parametrize("command, stages", [
    ("critical", ["critical"]),
    ("weakkam", ["critical", "weakkam"]),
    ("barrier", ["critical", "barrier"]),
    ("aubry", ["critical", "barrier", "aubry"]),
    ("quotient", ["critical", "barrier", "aubry", "quotient"]),
    ("dimension", ["critical", "barrier", "aubry", "quotient", "dimension"]),
    ("regularize", ["critical", "weakkam", "barrier", "aubry", "regularize"]),
    ("chains", ["chains"]),
    ("mane-compare", ["critical", "barrier", "aubry", "chains", "comparison"]),
    ("ferry", ["ferry"]),
    ("all", CORE + ["chains", "comparison", "ferry"]),
])
def test_cli_runs_the_stage_graph(tmp_path, capsys, monkeypatch, command, stages):
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(f"{k / 8},{k % 2 / 4}" for k in range(9)) + "\n")
    path = write_config(tmp_path, grid={"n": 32}, ferry={"points": str(pts)},
                        model={"family": "mane", "field": {"name": "sin_gradient"}})
    if "critical" not in stages:
        # chains and ferry build no Lagrangian and no kernel
        def refuse(*args):
            raise AssertionError("built a Lagrangian")
        monkeypatch.setattr(config, "make_lagrangian", refuse)
    assert main([command, "--config", path]) == 0
    # the summary line lists the stages in run order
    assert capsys.readouterr().out.strip().endswith(f"for stages [{', '.join(stages)}]")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert sorted(manifest["stages"]) == sorted(stages)
    # `stages` is written with sorted keys; stage_order keeps the run order
    assert manifest["stage_order"] == stages
    files = [f for s in manifest["stages"].values() for f in s["files"]]
    assert sorted(files) == sorted(manifest["checksums"])


@pytest.mark.parametrize("command, stage", [("mane-compare", "comparison"), ("ferry", "ferry")])
def test_cli_inapplicable_stage_fails_before_any_stage(tmp_path, capsys, command, stage):
    path = write_config(tmp_path)  # kinetic, no ferry points
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]["stage"] == stage
    assert manifest["error"]["type"] == "ConfigError"
    assert manifest["stages"] == {} and manifest["checksums"] == {}


# a dump limit past the grid writes barrier.csv; one below it skips it
@pytest.mark.parametrize("limit", [pipeline.BARRIER_DUMP_LIMIT, 4])
def test_formats_select_artifacts_by_extension(tmp_path, monkeypatch, limit):
    monkeypatch.setattr(pipeline, "BARRIER_DUMP_LIMIT", limit)
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n0.25,0.5\n0.5,0\n")
    runs = {}
    for formats in (["csv"], ["json"], ["csv", "json"]):
        out = tmp_path / "+".join(formats)
        cfg = ExperimentConfig.from_dict({
            "model": {"family": "mane", "field": {"name": "sin_gradient"}},
            "grid": {"dim": 1, "n": 16}, "ferry": {"points": str(pts)}, "seed": 7,
            "outputs": {"directory": str(out), "formats": formats}})
        manifest = run_pipeline(cfg, ["all"])
        written = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
        listed = [f for stage in manifest["stages"].values() for f in stage["files"]]
        assert sorted(listed) == sorted(manifest["checksums"]) == sorted(written)
        skipped = [n for n in manifest.get("notes", []) if n.startswith("barrier.csv skipped")]
        assert len(skipped) == ("csv" in formats and limit < 16)
        runs[tuple(formats)] = written
    both = runs[("csv", "json")]
    assert ("barrier.csv" in both) == (limit >= 16)
    for ext in ("csv", "json"):
        assert runs[(ext,)] == {f: b for f, b in both.items() if f.endswith("." + ext)}
