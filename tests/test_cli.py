import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import nhgeo
import nhgeo.cli as cli_mod
import nhgeo.ssh as ssh_mod
from nhgeo.cli import main
from nhgeo.kitaev import DissipativeKitaevModel, KitaevParams
from nhgeo.ssh import eps

from conftest import central_dxy, maxdev, save_matrix, x_block


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestTensorCommand:
    def test_ssh_symmetric_point(self, runner):
        result = run_ok(
            runner,
            ["tensor", "--model", "nh-ssh", "--set", "t=0", "--set", "delta=0",
             "--set", "L=64", "--tensors", "zeta"],
        )
        payload = json.loads(result.output)
        assert payload["tensors"]["zeta"]["components"][0][0]["re"] == pytest.approx(8.0)

    def test_kitaev_closed_form_point(self, runner):
        result = run_ok(
            runner,
            ["tensor", "--model", "kitaev-dissipative", "--set", "h=0",
             "--set", "gamma=1", "--set", "L=64", "--set", "mu_plus=1.0",
             "--set", "mu_minus=0.6", "--tensors", "zeta"],
        )
        payload = json.loads(result.output)
        lam = (1.0 - 0.36) / (1.0 + 0.36)
        zhh = payload["tensors"]["zeta"]["components"][0][0]["re"]
        assert zhh / 64 == pytest.approx(0.375 * lam ** 2, rel=1e-12)

    def test_matrix_family_hermitian_collapse(self, runner, tmp_path, rng):
        N = 4

        def herm(s):
            B = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            return s * (B + B.conj().T) / 2

        save_matrix(tmp_path / "K.json", herm(1.0) + np.diag(4.0 * np.arange(N)))
        save_matrix(tmp_path / "d1.json", herm(0.5))
        save_matrix(tmp_path / "d2.json", herm(0.5))
        result = run_ok(
            runner,
            ["tensor", "--matrix-file", str(tmp_path / "K.json"),
             "--param-files", str(tmp_path / "d1.json"),
             "--param-files", str(tmp_path / "d2.json"),
             "--tensors", "chi,zeta", "--state", "0"],
        )
        payload = json.loads(result.output)
        chi = payload["tensors"]["chi"]["components"]
        zeta = payload["tensors"]["zeta"]["components"]
        for a in range(2):
            for b in range(2):
                assert chi[a][b]["re"] == pytest.approx(zeta[a][b]["re"], abs=1e-9)
                assert chi[a][b]["im"] == pytest.approx(zeta[a][b]["im"], abs=1e-9)

    def test_invalid_model_exit_2(self, runner):
        result = runner.invoke(main, ["tensor", "--model", "nope"])
        assert result.exit_code == 2

    def test_invalid_tensor_kind_exit_2(self, runner):
        result = runner.invoke(
            main, ["tensor", "--model", "nh-ssh", "--tensors", "bogus"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--model", "nh-ssh", "--set", "L=abc"],
        ["--model", "nh-ssh", "--set", "L=64.0"],
        ["--model", "nh-ssh", "--set", "t=abc"],
        ["--model", "nh-ssh", "--set", "detla=0.5"],
        ["--model", "kitaev-dissipative", "--set", "weak_coupling=on"],
        ["--model", "nh-ssh", "--state", "abc"],
        ["--model", "nh-ssh", "--set", "t=nan"],
        ["--model", "kitaev-dissipative", "--set", "gamma=-inf"],
    ])
    def test_malformed_set_or_state_exit_2(self, runner, args):
        result = runner.invoke(main, ["tensor", *args, "--tensors", "zeta"])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("args", [
        ["--model", "nh-ssh", "--set", "L=0"],
        ["--model", "kitaev-dissipative", "--set", "mu_plus=-1"],
        ["--model", "kitaev-dissipative", "--set", "L=0"],
    ])
    def test_invalid_parameter_value_exit_2(self, runner, args):
        result = runner.invoke(main, ["tensor", *args, "--tensors", "zeta"])
        assert result.exit_code == 2, result.output
        assert "invalid parameters" in result.output

    @pytest.mark.parametrize("model, state", [
        ("kitaev-dissipative", "5"), ("kitaev-dissipative", "0"), ("kitaev-dissipative", "-3"),
        ("quad-liouville", "0"), ("nh-ssh", "ness"), ("matrix-file", "ness"),
    ])
    def test_state_the_model_lacks_exit_2(self, runner, tmp_path, monkeypatch, model, state):
        # a steady-state model names its one state 'ness', an eigenstate model
        # an index; either mistake exits 2 before any point is evaluated
        calls = []
        for cls in cli_mod.MODELS.values():
            monkeypatch.setattr(cls, "tensors", lambda *a, **k: calls.append(a))
        for name, A in (("K", np.diag([1.0, 2.0])), ("d", np.eye(2)), ("bath", np.eye(2))):
            save_matrix(tmp_path / f"{name}.json", A)
        files = {"matrix-file": ["--matrix-file", str(tmp_path / "K.json"),
                                 "--param-files", str(tmp_path / "d.json")],
                 "quad-liouville": ["--hmat-file", str(tmp_path / "K.json"),
                                    "--bath-file", str(tmp_path / "bath.json"),
                                    "--dhmat-files", str(tmp_path / "d.json")]}
        args = ["--model", model, *files.get(model, []), "--state", state]
        result = runner.invoke(main, ["tensor", *args])
        assert result.exit_code == 2, result.output
        assert f"got {state!r}" in result.output
        if model in ("nh-ssh", "kitaev-dissipative"):
            out = tmp_path / "s.csv"
            axis = "t:0.1:0.9:3" if model == "nh-ssh" else "h:0.1:0.5:2"
            result = runner.invoke(main, ["sweep", *args, "--set", "L=8", "--axis", axis,
                                          "--output", str(out)])
            assert result.exit_code == 2, result.output
            assert f"got {state!r}" in result.output
            assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("state", [1.5, True, "1.0"])
    def test_config_state_not_an_integer_exit_2(self, runner, tmp_path, state):
        out = tmp_path / "s.csv"
        config = tmp_path / "scan.json"
        config.write_text(json.dumps({
            "model": "nh-ssh", "params": {"L": 8}, "tensors": "eta", "state": state,
            "axes": [{"name": "t", "min": 0.1, "max": 0.9, "steps": 2}], "output": str(out)}))
        result = runner.invoke(main, ["sweep", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"got {state!r}" in result.output and not out.exists()
        config.write_text(config.read_text().replace(json.dumps(state), "1"))
        run_ok(runner, ["sweep", "--config", str(config)])

    def test_steady_state_named_ness(self, runner, tmp_path):
        args = ["--model", "kitaev-dissipative", "--set", "L=8", "--state", "ness"]
        payload = json.loads(run_ok(runner, ["tensor", *args]).output)
        assert payload["state"] == "ness"
        out = tmp_path / "s.csv"
        run_ok(runner, ["sweep", *args, "--axis", "h:0.1:0.5:2", "--output", str(out)])
        assert "state=ness" in out.read_text().splitlines()[0]

    def test_state_out_of_range_exit_3(self, runner, tmp_path):
        save_matrix(tmp_path / "K.json", np.diag([0.0, 1.0, 2.0, 3.0]))
        save_matrix(tmp_path / "d.json", np.ones((4, 4)))
        result = runner.invoke(main, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--tensors", "chi", "--state", "9"])
        assert result.exit_code == 3
        assert "ShapeMismatch" in result.output

    def test_matrix_file_tensors_from_one_eigensolve(self, runner, tmp_path, monkeypatch):
        import nhgeo.biortho as biortho_mod
        import nhgeo.cli as cli_mod
        import nhgeo.tensors as tensors_mod
        from nhgeo.linalg import eig_general
        from nhgeo.tensors import stencil_tensors
        from nhgeo.verify import random_family

        fam = random_family(np.random.default_rng(5), N=5)
        lam = np.zeros(2)
        files = [tmp_path / f for f in ("K.json", "d0.json", "d1.json")]
        for path, A in zip(files, [fam(lam), fam.derivative(0, lam), fam.derivative(1, lam)]):
            save_matrix(path, A)
        counts = {"build_biortho": 0, "eig_general": 0}

        def counting(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        counting(cli_mod, "build_biortho")
        counting(tensors_mod, "build_biortho")
        counting(biortho_mod, "eig_general")
        counting(cli_mod, "eig_general")  # an eigenvalue summary of its own
        kinds = ["eta", "zeta", "zeta_limited", "zeta_limited_rescaled"]
        result = run_ok(runner, [
            "tensor", "--matrix-file", str(files[0]), "--param-files", str(files[1]),
            "--param-files", str(files[2]), "--tensors", ",".join(kinds), "--state", "3"])
        assert counts == {"build_biortho": 1, "eig_general": 1}
        monkeypatch.undo()
        payload = json.loads(result.output)
        dec = eig_general(fam(lam))
        assert payload["eigenvalue_summary"] == {
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in dec.eigenvalues.tolist()],
            "condition": dec.condition,
            "diagonalizable": True,
        }
        tensors = payload["tensors"]
        assert list(tensors) == kinds
        for kind, T in stencil_tensors(fam, lam, 3, kinds).items():
            ref = T.values
            got = np.array([[complex(c["re"], c["im"]) for c in row]
                            for row in tensors[kind]["components"]])
            assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max(), kind

    def test_quad_liouville_tensors_from_one_eigensolve(self, runner, tmp_path, monkeypatch):
        import nhgeo.linalg as linalg_mod
        import nhgeo.liouville as liouville_mod
        from nhgeo.liouville import (
            gaussian_tensors,
            rapidities,
            steady_state_dgamma,
            zeta_ness,
        )
        from nhgeo.verify import random_bath, random_hmat

        rng = np.random.default_rng(9)
        H, D0, D1 = (random_hmat(rng, 3) for _ in range(3))
        B = sum(np.outer(v, v.conj()) for v in random_bath(rng, 3))
        files = [str(tmp_path / f) for f in ("H.json", "d0.json", "d1.json", "bath.json")]
        for path, A in zip(files, [H, D0, D1, B]):
            save_matrix(path, A)
        real = linalg_mod.eig_general
        calls = []

        def counting(K):
            calls.append(K)
            return real(K)

        for mod in (linalg_mod, liouville_mod, cli_mod):
            monkeypatch.setattr(mod, "eig_general", counting)
        kinds = ["zeta", "zeta_limited", "bures"]
        args = ["tensor", "--model", "quad-liouville", "--hmat-file", files[0],
                "--dhmat-files", files[1], "--dhmat-files", files[2], "--bath-file", files[3]]
        payload = json.loads(run_ok(runner, args + ["--tensors", ",".join(kinds)]).output)
        assert len(calls) == 1
        result = runner.invoke(main, args + ["--tensors", "zeta,eta"])
        assert result.exit_code == 2 and "'eta'" in result.output
        assert len(calls) == 1  # an unknown kind is rejected before any eigensolve
        monkeypatch.undo()

        fam = cli_mod.QuadLiouvilleAdapter(files[0], files[3], files[1:3]).family()
        lam = np.zeros(2)
        G, dG = steady_state_dgamma(fam, lam)
        refs = {"zeta": zeta_ness(fam, lam).values,
                **gaussian_tensors(G, dG, ["zeta_limited", "bures"])}
        tensors = payload["tensors"]
        assert list(tensors) == kinds
        for kind, ref in refs.items():
            got = [[complex(c["re"], c["im"]) for c in row] for row in tensors[kind]["components"]]
            assert np.array_equal(got, ref), kind
        x, _ = rapidities(fam(lam))
        assert payload["eigenvalue_summary"]["rapidities"] == [
            {"re": z.real, "im": z.imag} for z in x.tolist()]

    def test_matrix_file_degenerate_pair_away_from_state(self, runner, tmp_path):
        save_matrix(tmp_path / "K.json", np.diag([1.0, 1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.array([[0.0, 0.3, 1.0], [0.3, 0.0, 0.5],
                                                    [1.0, 0.5, 0.0]]))
        args = ["tensor", "--matrix-file", str(tmp_path / "K.json"),
                "--param-files", str(tmp_path / "d.json"), "--state", "2"]
        eta = json.loads(run_ok(runner, args + ["--tensors", "eta"]).output)["tensors"]["eta"]
        assert eta["components"][0][0]["re"] > 0
        result = runner.invoke(main, args + ["--tensors", "zeta"])
        assert result.exit_code == 3 and "DegenerateSpectrum" in result.output

    def test_matrix_file_chi_at_degenerate_state_exit_3(self, runner, tmp_path):
        # state 0 is in a degenerate pair, where chi would depend on the solver's basis
        save_matrix(tmp_path / "K.json", np.diag([1.0, 1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.array([[0.0, 0.3, 1.0], [0.3, 0.0, 0.5],
                                                    [1.0, 0.5, 0.0]]))
        args = ["tensor", "--matrix-file", str(tmp_path / "K.json"),
                "--param-files", str(tmp_path / "d.json"), "--tensors", "chi"]
        result = runner.invoke(main, args + ["--state", "0"])
        assert result.exit_code == 3, result.output
        assert "DegenerateSpectrum: eigenvalue 0 degenerate" in result.output
        chi = json.loads(run_ok(runner, args + ["--state", "2"]).output)["tensors"]["chi"]
        assert chi["components"][0][0]["re"] == pytest.approx(1.25)  # 1^2 + 0.5^2, gap 1

    def test_matrix_file_chi_non_hermitian_direction_exit_3(self, runner, tmp_path):
        # a Hermitian K with a non-Hermitian direction is not a Hermitian family
        save_matrix(tmp_path / "K.json", np.diag([0.0, 1.0]))
        save_matrix(tmp_path / "d.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
        result = runner.invoke(main, ["tensor", "--matrix-file", str(tmp_path / "K.json"),
                                      "--param-files", str(tmp_path / "d.json"),
                                      "--tensors", "chi"])
        assert result.exit_code == 3, result.output
        assert "NotHermitian: derivative along direction 0 is not Hermitian" in result.output

    @pytest.mark.parametrize("command", ["tensor", "spectrum"])
    @pytest.mark.parametrize("bad", ["K", "d"])
    @pytest.mark.parametrize("content", [
        '{"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}',
        '{"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}',
        '{"rows": 1, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
        '{"rows": 2, "cols": 2}',
        "[1, 2]",
        "{not json",
    ])
    def test_malformed_matrix_file_exit_2(self, runner, tmp_path, command, bad, content):
        save_matrix(tmp_path / "K.json", np.diag([1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.eye(2))
        (tmp_path / f"{bad}.json").write_text(content)
        result = runner.invoke(main, [
            command, "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json")])
        assert result.exit_code == 2, result.output
        assert "ShapeMismatch" in result.output

    @pytest.mark.parametrize("content", [
        '{"vectors": [[[1.0, 0.0], [2.0]]]}',
        '{"vectors": 5}',
        '{"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}',
    ])
    def test_malformed_bath_file_exit_2(self, runner, tmp_path, content):
        save_matrix(tmp_path / "H.json", np.zeros((2, 2)))
        (tmp_path / "bath.json").write_text(content)
        result = runner.invoke(main, [
            "spectrum", "--model", "quad-liouville", "--hmat-file", str(tmp_path / "H.json"),
            "--bath-file", str(tmp_path / "bath.json")])
        assert result.exit_code == 2, result.output
        assert "ShapeMismatch" in result.output

    @pytest.mark.parametrize("H, bath", [
        (np.zeros((4, 2)), np.eye(4)),
        (np.zeros((4, 4)), np.zeros((4, 2))),
        (np.zeros((4, 4)), np.eye(6)),
        (np.zeros((4, 4)), {"vectors": [[[1.0, 0.0], [0.0, 0.0]]]}),
    ], ids=["hmat-4x2", "bath-4x2", "bath-6x6-beside-4x4", "jump-vector-2-beside-4x4"])
    def test_quad_liouville_shapes_exit_2(self, runner, tmp_path, monkeypatch, H, bath):
        # malformed shapes are usage errors, found before any evaluation
        evaluations = []
        monkeypatch.setattr(cli_mod, "build_liouvillian",
                            lambda *args, **kw: evaluations.append(args))
        for name, A in (("H", H), ("dH", np.zeros_like(H))):
            save_matrix(tmp_path / f"{name}.json", A)
        if isinstance(bath, dict):
            (tmp_path / "bath.json").write_text(json.dumps(bath))
        else:
            save_matrix(tmp_path / "bath.json", bath)
        for command in ("tensor", "spectrum"):
            result = runner.invoke(main, [
                command, "--model", "quad-liouville", "--hmat-file", str(tmp_path / "H.json"),
                "--bath-file", str(tmp_path / "bath.json"),
                "--dhmat-files", str(tmp_path / "dH.json")])
            assert result.exit_code == 2, result.output
            assert "ShapeMismatch" in result.output, command
        assert evaluations == []

    def test_negative_mu_reg_exit_2(self, runner, tmp_path):
        save_matrix(tmp_path / "K.json", np.diag([1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.eye(2))
        result = runner.invoke(main, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--mu-reg", "-1"])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
    def test_invalid_mu_reg_exit_2(self, runner, tmp_path, monkeypatch, value):
        # NaN and inf used to run the evaluation and end in a json.dumps traceback
        calls = []
        monkeypatch.setattr(cli_mod.MatrixFamilyAdapter, "tensors", lambda *a: calls.append(a))
        save_matrix(tmp_path / "K.json", np.diag([1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.eye(2))
        result = runner.invoke(main, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--mu-reg", value])
        assert result.exit_code == 2, result.output
        assert "'--mu-reg': mu_reg must be a finite number" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert calls == []

    def test_overflowing_mu_reg_zero_tensor(self, runner, tmp_path):
        # mu_reg^2 overflows: the regularized kernel vanishes, where an
        # OverflowError traceback exited 1 before
        save_matrix(tmp_path / "K.json", np.array([[1.0, 2.0], [0.0, 3.0]]))
        save_matrix(tmp_path / "d.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        result = run_ok(runner, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--tensors", "zeta", "--mu-reg", "1e200"])
        assert json.loads(result.output)["tensors"]["zeta"]["components"] == [
            [{"re": 0.0, "im": 0.0}]]

    def test_overflowing_gap_is_not_a_warning(self, runner, tmp_path):
        # the eigenvalue gap overflows: a file point runs under the np.errstate
        # of its one-point pass, where the RuntimeWarning (an error here) exited 1
        save_matrix(tmp_path / "K.json", 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        save_matrix(tmp_path / "d.json", np.array([[0.0, 1.0], [1.0, 0.0]]))
        result = run_ok(runner, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--tensors", "zeta"])
        assert json.loads(result.output)["tensors"]["zeta"]["components"] == [
            [{"re": 0.0, "im": 0.0}]]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_file_direction_exit_2(self, runner, tmp_path, value):
        save_matrix(tmp_path / "K.json", np.diag([1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.eye(2))
        for command in ("tensor", "spectrum"):
            result = runner.invoke(main, [
                command, "--matrix-file", str(tmp_path / "K.json"),
                "--param-files", str(tmp_path / "d.json"), "--set", f"lam0={value}"])
            assert result.exit_code == 2, result.output
            assert "lam0 must be a finite number" in result.output

    def test_numerical_failure_exit_3(self, runner):
        result = runner.invoke(
            main,
            ["tensor", "--model", "nh-ssh", "--set", "t=1", "--set", "delta=0",
             "--set", "L=64", "--tensors", "zeta"],
        )
        assert result.exit_code == 3
        assert "CriticalKPoint" in result.output


def tensor_values(payload, kind):
    return np.array([[complex(c["re"], c["im"]) for c in row]
                     for row in payload["tensors"][kind]["components"]])


class TestSSHTensors:
    """``eta``, ``zeta_limited`` and ``zeta_limited_rescaled`` of nh-ssh come
    from one stacked pass over the k-grid; no kind runs the stencil."""

    @pytest.fixture
    def stencils(self, monkeypatch):
        import nhgeo.tensors as tensors_mod

        calls = []
        real = tensors_mod._stencil
        monkeypatch.setattr(tensors_mod, "_stencil",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_limited_kinds_run_no_stencil(self, runner, tmp_path, stencils):
        run_ok(runner, ["sweep", "--model", "nh-ssh", "--set", "L=16", "--set", "delta=0.3",
                        "--axis", "t:0.1:1.9:5", "--tensors", "zeta_limited,zeta_limited_rescaled",
                        "--output", str(tmp_path / "x.csv")])
        assert stencils == []

    def test_values_and_order(self, runner, stencils):
        from nhgeo.ssh import SSHParams, bloch_family
        from nhgeo.tensors import stencil_tensors

        kinds = ["zeta_limited_rescaled", "eta", "zeta", "zeta_limited"]
        result = run_ok(runner, [
            "tensor", "--model", "nh-ssh", "--set", "t=0.7", "--set", "delta=0.4",
            "--set", "L=16", "--tensors", ",".join(kinds), "--state", "1"])
        assert stencils == []
        payload = json.loads(result.output)
        assert list(payload["tensors"]) == kinds
        p = SSHParams(0.7, 0.4, 16)
        stencil_kinds = ["eta", "zeta_limited", "zeta_limited_rescaled"]
        per_k = [stencil_tensors(bloch_family(p, k), [0.7, 0.4], 1, stencil_kinds)
                 for k in p.k_grid]
        for kind in stencil_kinds:
            ref = sum(st[kind].values for st in per_k)
            assert np.abs(tensor_values(payload, kind) - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_first_kind_names_the_error(self, runner, tmp_path):
        # t = 1, delta = 0: eps(pi) = 0 on the grid, where every kind checks
        # the grid first, the stacked pass included
        out = tmp_path / "x.csv"
        for kinds, status in (("zeta,zeta_limited", "CriticalKPoint"),
                              ("zeta_limited,zeta", "CriticalKPoint"),
                              ("eta,zeta", "CriticalKPoint")):
            run_ok(runner, ["sweep", "--model", "nh-ssh", "--set", "L=8", "--set", "delta=0",
                            "--axis", "t:0.5:1:2", "--tensors", kinds, "--output", str(out)])
            rows = out.read_text().splitlines()[2:]
            assert rows[0].endswith(",ok") and rows[1].endswith("," + status), kinds

    @pytest.mark.parametrize("kind", cli_mod.SSHAdapter.kinds)
    @pytest.mark.parametrize("state", ["2", "-1"])
    def test_state_out_of_range_exit_3(self, runner, tmp_path, monkeypatch, kind, state):
        # checked once against the two bands, before any point is evaluated,
        # for the kinds that read the state and for zeta, which does not
        calls = []
        real = cli_mod.SSHAdapter.tensors
        monkeypatch.setattr(cli_mod.SSHAdapter, "tensors",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "sweep", "--model", "nh-ssh", "--set", "L=8", "--set", "delta=0.5",
            "--axis", "t:0.1:0.9:3", "--tensors", kind, "--state", state, "--output", str(out)])
        assert result.exit_code == 3, result.output
        assert f"ShapeMismatch: state index {state} out of range for dim 2" in result.output
        assert not out.exists()
        result = runner.invoke(main, ["tensor", "--model", "nh-ssh", "--set", "L=8",
                                      "--tensors", kind, "--state", state])
        assert result.exit_code == 3, result.output
        assert f"ShapeMismatch: state index {state} out of range for dim 2" in result.output
        assert calls == []

    @pytest.mark.parametrize("kinds", ["zeta_limited_rescaled", "zeta_limited", "eta",
                                       "eta,zeta_limited"])
    def test_gap_closing_grid_k_exit_3(self, runner, kinds):
        # t = 1.5, delta = 0.5, L = 8: eps(pi) rounds to -6e-17j, and the k = pi
        # block keeps a rounding-sized gap that no per-block check catches
        args = ["tensor", "--model", "nh-ssh", "--set", "t=1.5", "--set", "delta=0.5",
                "--set", "L=8", "--tensors"]
        want = runner.invoke(main, args + ["zeta"])
        assert want.exit_code == 3 and "CriticalKPoint" in want.output
        result = runner.invoke(main, args + [kinds])
        assert result.exit_code == want.exit_code
        assert result.output == want.output

    def test_overflowing_band_function_rows(self, runner, tmp_path):
        # |eps| = |a b| overflows: the rows were ok with a NaN zeta_deltadelta
        # and every other cell 0
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", "nh-ssh", "--set", "delta=0.5", "--set", "L=8",
                        "--axis", "t:1e159:1e160:2", "--tensors", "zeta", "--output", str(out)])
        rows = out.read_text().splitlines()[2:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["NonConvergence"] * 2

    @pytest.mark.parametrize("command", ["tensor", "spectrum"])
    def test_overflowing_band_function_exit_3(self, runner, command):
        # a JSON ValueError traceback with exit 1 before
        args = [command, "--model", "nh-ssh", "--set", "t=1e160", "--set", "delta=0.5",
                "--set", "L=4"]
        result = runner.invoke(main, args + (["--tensors", "zeta"] if command == "tensor" else []))
        assert result.exit_code == 3, result.output
        assert "NonConvergence" in result.output

    def test_tensor_eigenvalue_summary_exit_3(self, runner, monkeypatch):
        # every kind passes, but the band values of the summary overflow
        monkeypatch.setattr(cli_mod, "eps", lambda t, delta, k: np.full(np.shape(k), np.inf))
        result = runner.invoke(main, ["tensor", "--model", "nh-ssh", "--set", "t=0.5",
                                      "--set", "L=4", "--tensors", "zeta"])
        assert result.exit_code == 3, result.output
        assert "NonConvergence: block 0: band value is not finite" in result.output

    @pytest.mark.parametrize("state", [0, 1])
    @pytest.mark.parametrize("t", [1.5 - 1e-6, 1.5 + 1e-6, 1.5 + 1e-4])
    def test_eta_exact_next_to_a_gap_closing(self, runner, t, state):
        # delta = 0.5, L = 8: the k = pi block nearly closes its gap, where a
        # finite-difference eta is off by 105% (|t - 1.5| = 1e-6) and 0.62% (1e-4)
        from nhgeo.ssh import SSHParams, bloch_family
        from nhgeo.tensors import sum_over_states

        result = run_ok(runner, ["tensor", "--model", "nh-ssh", "--set", f"t={t!r}",
                                 "--set", "delta=0.5", "--set", "L=8", "--tensors", "eta",
                                 "--state", str(state)])
        p = SSHParams(t, 0.5, 8)
        ref = sum(sum_over_states(bloch_family(p, k), [t, 0.5], state, ["eta"])["eta"].values
                  for k in p.k_grid)
        got = tensor_values(json.loads(result.output), "eta")
        # the full-zone reference carries the rounding of its mirrored terms
        # as an imaginary part (15.3 on real parts of 6.25e10 at |t - 1.5| =
        # 1e-6); the half-zone sum is real
        assert np.abs(got.real - ref.real).max() <= 1e-12 * np.abs(ref).max()
        assert not got.imag.any()


class TestFileFamilyDirections:
    """The directions ``lam0, lam1, ...`` of a file family are its ``--set``
    parameters: ``lam0 = x`` evaluates the family whose base file holds
    ``base + x * part0``, at lam = 0."""

    X = 0.3

    @pytest.fixture
    def path(self, tmp_path):
        from nhgeo.verify import random_bath, random_family, random_hmat

        rng = np.random.default_rng(7)
        fam = random_family(rng, N=5)
        K, dK0, dK1 = fam([0.0, 0.0]), fam.derivative(0, [0.0, 0.0]), fam.derivative(1, [0.0, 0.0])
        H, dH0, dH1 = (random_hmat(rng, 2) for _ in range(3))
        mats = {"K": K, "K_x": K + self.X * dK0, "dK0": dK0, "dK1": dK1,
                "H": H, "H_x": H + self.X * dH0, "dH0": dH0, "dH1": dH1,
                "bath": sum(np.outer(v, v.conj()) for v in random_bath(rng, 2))}
        for name, A in mats.items():
            save_matrix(tmp_path / f"{name}.json", A)
        return lambda name: str(tmp_path / f"{name}.json")

    @staticmethod
    def family(path, model, base):
        if model == "matrix-file":
            return ["--matrix-file", path(base), "--param-files", path("dK0"),
                    "--param-files", path("dK1")]
        return ["--model", model, "--hmat-file", path(base), "--bath-file", path("bath"),
                "--dhmat-files", path("dH0"), "--dhmat-files", path("dH1")]

    @pytest.mark.parametrize("model, base, tensor_args", [
        ("matrix-file", "K", ["--tensors", "eta,zeta,zeta_limited", "--state", "2"]),
        ("quad-liouville", "H", ["--tensors", "zeta,zeta_limited,bures"]),
    ])
    def test_set_direction_is_the_shifted_base(self, runner, path, model, base, tensor_args):
        at_x = self.family(path, model, base) + ["--set", f"lam0={self.X}"]
        shifted = self.family(path, model, base + "_x")
        for command, extra in (("spectrum", []), ("tensor", tensor_args)):
            got, want = (json.loads(run_ok(runner, [command, *args, *extra]).output)
                         for args in (at_x, shifted))
            if command == "tensor":
                assert got.pop("params") == {"lam0": self.X} and want.pop("params") == {}
            assert got == want, command

    @pytest.mark.parametrize("model, given", [
        ("matrix-file", ["--param-files", "dK0"]),
        ("quad-liouville", ["--hmat-file", "H"]),
    ])
    def test_model_without_its_files_exit_2(self, runner, path, model, given):
        result = runner.invoke(main, ["spectrum", "--model", model, given[0], path(given[1])])
        assert result.exit_code == 2 and f"model {model} needs --" in result.output

    @classmethod
    def model_args(cls, path, model):
        """The arguments that select ``model`` with its files, directions included."""
        if model in ("matrix-file", "quad-liouville"):
            return cls.family(path, model, "K" if model == "matrix-file" else "H")
        return ["--model", model]

    @pytest.fixture
    def reads(self, monkeypatch):
        """The input files that the command reads."""
        reads = []
        for name in ("load_matrix", "load_json"):
            real = getattr(cli_mod, name)
            monkeypatch.setattr(cli_mod, name, lambda f, *a, _f=real: reads.append(f) or _f(f, *a))
        return reads

    @pytest.mark.parametrize("model, option, file", [
        ("nh-ssh", "--hmat-file", "H"),
        ("nh-ssh", "--param-files", "dK0"),
        ("kitaev-dissipative", "--bath-file", "bath"),
        ("kitaev-dissipative", "--dhmat-files", "dH0"),
        ("matrix-file", "--bath-file", "bath"),
        ("matrix-file", "--dhmat-files", "dH0"),
        ("quad-liouville", "--param-files", "dK0"),
    ])
    @pytest.mark.parametrize("command", ["tensor", "spectrum"])
    def test_file_option_the_model_does_not_read_exit_2(self, runner, path, reads, model,
                                                        option, file, command):
        # an input the model would drop exits 2, before any file is read
        args = self.model_args(path, model)
        result = runner.invoke(main, [command, *args, option, path(file)])
        assert result.exit_code == 2, result.output
        assert f"model {model} reads no {option}" in result.output
        assert reads == []

    @pytest.mark.parametrize("model", ["nh-ssh", "kitaev-dissipative", "quad-liouville"])
    def test_model_beside_matrix_file_exit_2(self, runner, path, reads, model):
        # --matrix-file no longer turns another --model into matrix-file
        files = ["--matrix-file", path("K"), "--param-files", path("dK0")]
        for command in ("tensor", "spectrum"):
            result = runner.invoke(main, [command, "--model", model, *files])
            assert result.exit_code == 2, result.output
            assert f"model {model} reads no --matrix-file" in result.output
        assert reads == []
        alone, named = (run_ok(runner, ["tensor", *m, *files, "--tensors", "eta"]).output
                        for m in ([], ["--model", "matrix-file"]))
        assert alone == named and json.loads(alone)["model"] == "matrix-file"

    @pytest.mark.parametrize("model, tensor_args", [
        ("nh-ssh", []),
        ("kitaev-dissipative", ["--tensors", "zeta,bures"]),
        ("kitaev-dissipative", ["--set", "weak_coupling=0"]),
        ("quad-liouville", []),
        ("matrix-file", ["--tensors", "eta,zeta_limited"]),
    ])
    @pytest.mark.parametrize("mu_reg", ["0.5", "1e-300"])
    def test_mu_reg_no_kind_reads_exit_2(self, runner, path, monkeypatch, model, tensor_args,
                                         mu_reg):
        # only the zeta of matrix-file reads mu_reg: elsewhere a nonzero value
        # exits 2 before any evaluation
        calls = []
        for cls in cli_mod.MODELS.values():
            monkeypatch.setattr(cls, "tensors", lambda *a: calls.append(a))
        args = self.model_args(path, model)
        result = runner.invoke(main, ["tensor", *args, *tensor_args, "--mu-reg", mu_reg])
        assert result.exit_code == 2, result.output
        assert f"mu_reg={float(mu_reg)} is read only by the zeta of model matrix-file" \
            in result.output
        assert calls == []

    def test_mu_reg_read_by_matrix_file_zeta(self, runner, path):
        args = ["tensor", *self.family(path, "matrix-file", "K"), "--tensors", "eta,zeta"]
        plain, zero, reg = (json.loads(run_ok(runner, args + extra).output) for extra in (
            [], ["--mu-reg", "0"], ["--mu-reg", "0.5"]))
        assert plain == zero and reg["metadata"]["mu_reg"] == 0.5
        assert reg["tensors"]["eta"] == plain["tensors"]["eta"]
        assert reg["tensors"]["zeta"] != plain["tensors"]["zeta"]

    @pytest.mark.parametrize("model, base, option", [
        ("matrix-file", "K", "--param-files"),
        ("quad-liouville", "H", "--dhmat-files"),
    ])
    def test_tensor_without_directions_exit_2(self, runner, path, model, base, option):
        # a family of no direction has a spectrum but no tensor
        args = self.family(path, model, base)
        args = args[:args.index(option)]
        run_ok(runner, ["spectrum", *args])
        result = runner.invoke(main, ["tensor", *args])
        assert result.exit_code == 2
        assert f"tensor evaluation needs at least one {option}" in result.output

    @pytest.mark.parametrize("model, base, option, part", [
        ("matrix-file", "K", "--param-files", "dH0"),  # 4x4 beside a 5x5 base
        ("quad-liouville", "H", "--dhmat-files", "dK0"),  # 5x5 beside a 4x4 base
    ])
    def test_direction_of_another_shape_exit_2(self, runner, path, model, base, option, part):
        files = (["--matrix-file", path(base)] if model == "matrix-file" else
                 ["--model", model, "--hmat-file", path(base), "--bath-file", path("bath")])
        for command in ("tensor", "spectrum"):
            result = runner.invoke(main, [command, *files, option, path(part)])
            assert result.exit_code == 2, result.output
            assert "must match the base shape" in result.output, command

    @pytest.mark.parametrize("model", ["matrix-file", "quad-liouville"])
    def test_sweep_rejects_file_family_exit_2(self, runner, tmp_path, model):
        result = runner.invoke(main, ["sweep", "--model", model, "--axis", "lam0:0:1:3",
                                      "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2 and "sweep supports models: nh-ssh, kitaev-dissipative" \
            in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("model", ["matrix-file", "quad-liouville"])
    @pytest.mark.parametrize("assignment", ["t=1", "lam2=0.5"])
    def test_unknown_parameter_exit_2(self, runner, path, model, assignment):
        base = "K" if model == "matrix-file" else "H"
        for command in ("tensor", "spectrum"):
            result = runner.invoke(main, [command, *self.family(path, model, base),
                                          "--set", assignment])
            assert result.exit_code == 2 and "unknown parameter" in result.output, command

    def test_matrix_file_away_from_zero_one_eigensolve(self, runner, path, monkeypatch):
        import nhgeo.biortho as biortho_mod
        import nhgeo.tensors as tensors_mod

        counts = {"build_biortho": 0, "eig_general": 0}

        def count(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        count(cli_mod, "build_biortho")
        count(tensors_mod, "build_biortho")
        count(biortho_mod, "eig_general")
        count(cli_mod, "eig_general")  # an eigenvalue summary of its own
        run_ok(runner, ["tensor", *self.family(path, "matrix-file", "K"), "--set", "lam0=0.3",
                        "--set", "lam1=-0.2", "--tensors", "eta,zeta", "--state", "1"])
        assert counts == {"build_biortho": 1, "eig_general": 1}

    @pytest.mark.parametrize("d", [1, 2])
    def test_quad_liouville_analytic_derivative(self, runner, path, monkeypatch, d):
        import dataclasses

        from nhgeo.liouville import NESS_KINDS, ness_tensors

        parts = [path("dH0"), path("dH1")][:d]
        fam = cli_mod.QuadLiouvilleAdapter(path("H"), path("bath"), parts).family()
        lam = np.linspace(0.2, -0.1, d)
        got = ness_tensors(fam, lam, NESS_KINDS)
        fd = dataclasses.replace(fam, deriv_func=lambda mu, l: central_dxy(fam, mu, l))
        ref = ness_tensors(fd, lam, NESS_KINDS)
        for kind in NESS_KINDS:
            want = ref[kind].values
            assert maxdev(got[kind].values, want) <= 1e-8 * np.abs(want).max(), kind

        builds = []
        real = cli_mod.build_liouvillian
        monkeypatch.setattr(cli_mod, "build_liouvillian",
                            lambda *args, **kw: builds.append(args) or real(*args, **kw))
        files = ["--hmat-file", path("H"), "--bath-file", path("bath")]
        run_ok(runner, ["tensor", "--model", "quad-liouville", *files,
                        *(arg for p in parts for arg in ("--dhmat-files", p)),
                        "--tensors", ",".join(NESS_KINDS)])
        assert len(builds) == 2  # the point's X and Y, then the spectrum's cached eigensolve

    @pytest.mark.parametrize("part", [
        np.ones((4, 4)),  # real: not purely imaginary
        1j * np.triu(np.ones((4, 4)), 1),  # imaginary, but not antisymmetric
    ], ids=["real", "not-antisymmetric"])
    def test_quad_liouville_bad_direction_exit_3(self, runner, path, tmp_path, part):
        save_matrix(tmp_path / "bad.json", part)
        result = runner.invoke(main, [
            "tensor", "--model", "quad-liouville", "--hmat-file", path("H"),
            "--bath-file", path("bath"), "--dhmat-files", path("dH0"),
            "--dhmat-files", str(tmp_path / "bad.json")])
        assert result.exit_code == 3 and "BadHamiltonian" in result.output, result.output


class TestSpectrumCommand:
    def test_defective_matrix_writes_strict_json(self, runner, tmp_path):
        save_matrix(tmp_path / "K.json", np.diag(np.ones(3), 1))
        result = run_ok(runner, ["spectrum", "--matrix-file", str(tmp_path / "K.json")])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        spec = json.loads(result.output, parse_constant=reject)["spectrum"]
        assert spec["condition"] is None and spec["diagonalizable"] is False

    def test_ssh_band_values(self, runner):
        result = run_ok(
            runner,
            ["spectrum", "--model", "nh-ssh", "--set", "t=0.5", "--set", "delta=0.3",
             "--set", "L=4"],
        )
        payload = json.loads(result.output)
        per_k = payload["spectrum"]["per_k"]
        assert len(per_k) == 4
        for entry in per_k:
            e = 1 + 0.25 - 0.09 + 1.0 * np.cos(entry["k"]) - 0.6j * np.sin(entry["k"])
            se = np.sqrt(e)
            got = {
                complex(v["re"], v["im"]) for v in entry["values"]
            }
            for z in got:
                assert min(abs(z - se), abs(z + se)) < 1e-10
        # bit for bit the per-k loop
        loop = []
        for entry in per_k:
            se = np.sqrt(eps(0.5, 0.3, entry["k"]))
            assert entry["values"] == [cli_mod._c(se), cli_mod._c(-se)]
            loop += [complex(se), complex(-se)]
        loop.sort(key=lambda z: (z.real, z.imag))
        assert payload["spectrum"]["sorted"] == [cli_mod._c(z) for z in loop]

    def test_kitaev_rapidity_positivity(self, runner):
        model = DissipativeKitaevModel(0.3, 1.0, 0.6)
        for L in (6, 129):
            result = run_ok(
                runner,
                ["spectrum", "--model", "kitaev-dissipative", "--set", f"L={L}",
                 "--set", "g=0.3"],
            )
            spec = json.loads(result.output)["spectrum"]
            assert spec["min_re"] > 0
            assert spec["unique_steady_state"] is True
            assert len(spec["rapidities"]) == 2 * L
            # bit for bit the per-k loop
            loop = []
            for k in 2.0 * np.pi * np.arange(L) / L:
                loop.extend(np.linalg.eigvals(x_block(model, k, [0.0, 1.0])))
            loop.sort(key=lambda z: (z.real, z.imag))
            assert spec["rapidities"] == [cli_mod._c(z) for z in loop]
            assert spec["min_re"] == min(z.real for z in loop)

    def test_no_bath_non_unique(self, runner, tmp_path):
        save_matrix(tmp_path / "H.json", np.zeros((2, 2)))
        with open(tmp_path / "bath.json", "w") as fh:
            json.dump({"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 4}, fh)
        result = run_ok(
            runner,
            ["spectrum", "--model", "quad-liouville",
             "--hmat-file", str(tmp_path / "H.json"),
             "--bath-file", str(tmp_path / "bath.json")],
        )
        payload = json.loads(result.output)
        assert payload["spectrum"]["unique_steady_state"] is False


class TestSweepCommand:
    def test_peaks_near_critical_lines(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        run_ok(
            runner,
            ["sweep", "--model", "nh-ssh", "--set", "delta=0.5", "--set", "L=512",
             "--axis", "t:0:2:201", "--tensors", "zeta", "--output", str(out)],
        )
        rows = out.read_text().splitlines()
        assert rows[0].startswith("# nhgeo v")
        cols = rows[1].split(",")
        assert cols[0] == "t" and cols[-1] == "status"
        t, ztt, status = [], [], []
        for line in rows[2:]:
            cells = line.split(",")
            t.append(float(cells[0]))
            ztt.append(float(cells[1]))
            status.append(cells[-1])
        t = np.array(t)
        ztt = np.array(ztt)
        # failures on the two critical grid points are data, not fatal
        assert status.count("CriticalKPoint") == 2
        assert np.isnan(ztt[status.index("CriticalKPoint")])
        for tc in (0.5, 1.5):
            window = (t > tc - 0.25) & (t < tc + 0.25)
            sub = np.where(window)[0]
            best = sub[np.nanargmax(np.where(np.isfinite(ztt[sub]), ztt[sub], -np.inf))]
            assert abs(t[best] - tc) <= 0.01 + 1e-12

    def test_deterministic_and_roundtrip(self, runner, tmp_path):
        base = ["sweep", "--model", "kitaev-dissipative", "--set", "gamma=1",
                "--set", "L=128", "--axis", "h:0:2:41", "--tensors", "zeta"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, base + ["--output", str(a)])
        run_ok(runner, base + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        # 17 significant digits round-trip bit-exactly
        for line in a.read_text().splitlines()[2:]:
            cells = line.split(",")
            for cell in cells[1:-1]:
                v = float(cell)
                if np.isfinite(v):
                    assert format(v, ".17g") == cell

    def test_rows_cell_by_cell(self, runner, tmp_path, monkeypatch):
        # NaN, -0, tiny and 17-digit cells, and error rows: each CSV cell is
        # format(float, ".17g") of the axis value or the re/im part, NaN on an
        # error row, and JSON writes NaN as null and keeps -0
        from nhgeo.errors import CriticalKPoint, SingularPencil
        mats = np.empty((2, 2), dtype=complex)
        mats.real, mats.imag = [[-0.0, np.nan], [1e-300, 0.1]], [[0.0, -0.0], [-0.0, 2 / 3]]
        errors = {1: CriticalKPoint("gap"), 4: SingularPencil("pencil")}
        results = [errors.get(i) or (-mats if i % 2 else mats) for i in range(6)]
        monkeypatch.setattr(cli_mod.SSHAdapter, "tensors", lambda self, points, kinds, n, mu_reg: [
            r if isinstance(r, Exception) else {kind: r for kind in kinds} for r in results])
        args = ["sweep", "--model", "nh-ssh", "--axis", "t:-0.0:1:6", "--tensors", "zeta,eta"]
        run_ok(runner, args + ["--output", str(tmp_path / "s.csv")])
        run_ok(runner, args + ["--output", str(tmp_path / "s.json"), "--format", "json"])
        want = []
        for t, r in zip(np.linspace(-0.0, 1.0, 6), results):
            if isinstance(r, Exception):
                want.append([float(t)] + [np.nan] * 16 + [type(r).__name__])
            else:
                want.append([float(t)] + [float(v) for z in r.ravel() for v in (z.real, z.imag)] * 2
                            + ["ok"])
        lines = (tmp_path / "s.csv").read_text().splitlines()[2:]
        assert lines == [",".join([format(v, ".17g") for v in row[:-1]] + row[-1:]) for row in want]
        assert lines[0].startswith("0,-0,0,nan,-0,1e-300,-0,0.10000000000000001,0.66666666666666663,")
        assert lines[1] == "0.20000000000000001" + ",nan" * 16 + ",CriticalKPoint"
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert json.dumps(rows) == json.dumps([[None if v != v else v for v in row] for row in want])

    def test_config_file_and_json_format(self, runner, tmp_path):
        cfg = {
            "model": "nh-ssh",
            "params": {"delta": 0.3, "L": 64},
            "axes": [{"name": "t", "min": 0.0, "max": 1.6, "steps": 9}],
            "tensors": ["zeta"],
            "format": "json",
            "output": str(tmp_path / "scan.json"),
        }
        with open(tmp_path / "cfg.json", "w") as fh:
            json.dump(cfg, fh)
        run_ok(runner, ["sweep", "--config", str(tmp_path / "cfg.json")])
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert payload["columns"][0] == "t"
        assert len(payload["rows"]) == 9
        assert payload["meta"]["tensors"] == ["zeta"]
        # the flag overrides the config's tensor list
        run_ok(runner, ["sweep", "--config", str(tmp_path / "cfg.json"), "--tensors", "eta"])
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert payload["meta"]["tensors"] == ["eta"]
        assert payload["columns"][1] == "eta_tt_re"

    def test_cli_set_overrides_config(self, runner, tmp_path):
        cfg = {
            "model": "nh-ssh",
            "params": {"delta": 0.3, "L": 16},
            "axes": [{"name": "t", "min": 0.0, "max": 1.0, "steps": 3}],
            "output": str(tmp_path / "o.csv"),
        }
        with open(tmp_path / "cfg.json", "w") as fh:
            json.dump(cfg, fh)
        run_ok(runner, ["sweep", "--config", str(tmp_path / "cfg.json"),
                        "--set", "delta=0.4"])
        assert "delta=0.4" in (tmp_path / "o.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("model, args", [
        ("nh-ssh", ["--axis", "t:0:1:4", "--axis", "delta:0:0.5:3"]),
        ("kitaev-dissipative", ["--axis", "h:0:2:5", "--tensors", "zeta,bures"]),
        ("kitaev-dissipative", ["--set", "weak_coupling=0", "--axis", "h:0:2:5"]),
    ])
    def test_sweep_starts_no_thread(self, runner, tmp_path, monkeypatch, model, args):
        import threading

        started = []
        real = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self) or real(self))
        run_ok(runner, ["sweep", "--model", model, "--set", "L=16", *args,
                        "--output", str(tmp_path / "x.csv")])
        assert started == []
        assert "--threads" not in run_ok(runner, ["sweep", "--help"]).output

    def test_ssh_sweep_points_share_passes(self, runner, tmp_path, monkeypatch):
        # 20 points at L = 64: one adapter call, whose band sums are closed
        # forms; no Bloch block is eigensolved and the eigensolver route
        # (sum_over_blocks) stays an oracle
        import nhgeo.linalg as linalg_mod
        import nhgeo.tensors as tensors_mod

        adapter_calls, engine_calls = [], []
        real = cli_mod.SSHAdapter.tensors
        monkeypatch.setattr(cli_mod.SSHAdapter, "tensors",
                            lambda *a, **k: adapter_calls.append(a) or real(*a, **k))
        for mod in (linalg_mod, tensors_mod, ssh_mod):
            for name in ("_eig_2x2", "sum_over_blocks"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, lambda *a, _f=getattr(mod, name), _n=name, **k:
                                        engine_calls.append(_n) or _f(*a, **k))
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", "nh-ssh", "--set", "delta=0.5", "--set", "L=64",
                        "--axis", "t:0.05:1.95:20", "--tensors", "eta,zeta_limited,zeta_limited_rescaled",
                        "--output", str(out)])
        assert len(adapter_calls) == 1
        assert engine_calls == []
        assert len(out.read_text().splitlines()) == 22

    def test_axis_into_invalid_region_exit_2(self, runner, tmp_path, monkeypatch):
        # the last grid point has mu_minus < 0: rejected before any evaluation
        calls = []
        monkeypatch.setattr(cli_mod.KitaevAdapter, "tensors",
                            lambda self, *args: calls.append(args))
        result = runner.invoke(main, [
            "sweep", "--model", "kitaev-dissipative", "--set", "L=8",
            "--axis", "mu_minus:1:-0.5:4",
            "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert "bath amplitudes" in result.output
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_zero_step_axis_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--model", "nh-ssh", "--axis", "t:0:2:1",
             "--output", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_axis_collision_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--model", "nh-ssh", "--set", "t=1", "--axis", "t:0:2:5",
             "--output", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("second", ["flag", "config"])
    def test_repeated_axis_exit_2(self, runner, tmp_path, monkeypatch, second):
        # a second t axis would evaluate every point at its own t, under the
        # labels of both: rejected before any evaluation
        calls = []
        monkeypatch.setattr(cli_mod.SSHAdapter, "tensors", lambda self, *args: calls.append(args))
        args = ["sweep", "--model", "nh-ssh", "--set", "L=8", "--axis", "t:0:2:3",
                "--output", str(tmp_path / "x.csv")]
        if second == "flag":
            args += ["--axis", "t:0:1:3"]
        else:
            config = tmp_path / "scan.json"
            config.write_text(json.dumps({"axes": [{"name": "t", "min": 0, "max": 1, "steps": 3}]}))
            args += ["--config", str(config)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "axis 't' given twice" in result.output
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("model, params, args", [
        ("nh-ssh", ssh_mod.SSHParams, ["--set", "delta=0.5", "--axis", "t:0.05:1.95:20"]),
        ("kitaev-dissipative", KitaevParams, ["--set", "weak_coupling=0", "--axis", "h:0:2:21"]),
        ("kitaev-dissipative", KitaevParams, ["--axis", "h:0:2:7", "--axis", "gamma:0.5:1:3"]),
    ])
    def test_one_parameter_object_per_point(self, runner, tmp_path, monkeypatch, model,
                                            params, args):
        # each grid point is checked once, building the parameter object
        # that its adapter evaluates
        built, check = [], params.__post_init__
        monkeypatch.setattr(params, "__post_init__", lambda p: built.append(p) or check(p))
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", model, "--set", "L=8", *args,
                        "--output", str(out)])
        assert len(built) == len(out.read_text().splitlines()) - 2

    @pytest.mark.parametrize("model, args", [
        ("nh-ssh", ["--axis", "t:0:2:5", "--set", "delta=0"]),
        ("kitaev-dissipative", ["--axis", "h:0:2:5"]),
        ("kitaev-dissipative", ["--axis", "h:0:2:5", "--set", "weak_coupling=0"]),
    ])
    def test_no_kinds_writes_status_rows(self, runner, tmp_path, model, args):
        # t = 1 and h = 1 close the gap on the grid: the status column is
        # all a row holds
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", model, "--set", "L=8", *args, "--tensors", ",",
                        "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0] == [args[1].split(":")[0], "status"]
        error = "SingularPencil" if "weak_coupling=0" in args else "CriticalKPoint"
        assert rows[1:] == [[v, s] for v, s in zip(["0", "0.5", "1", "1.5", "2"],
                                                  ["ok", "ok", error, "ok", "ok"])]


class TestVerifyCommand:
    def test_quick_subset_passes(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--level", "quick",
             "--only", "weak-coupling,kitaev-closed-forms,steady-state"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 3


def _components(payload, kind):
    return np.array([[complex(c["re"], c["im"]) for c in row]
                     for row in payload["tensors"][kind]["components"]])


class TestKitaevBures:
    @staticmethod
    def per_k_loop(p):
        from nhgeo.kitaev import dgamma_k_weak, gamma_k_weak
        from nhgeo.liouville import gaussian_tensors

        vals = np.zeros((2, 2))
        for k in p.k_grid:
            dgs = [dgamma_k_weak(p, k, mu) for mu in range(2)]
            vals += gaussian_tensors(gamma_k_weak(p, k), dgs, ["bures"])["bures"]
        return vals

    @pytest.mark.parametrize("L", [4, 9, 128])
    def test_matches_per_k_loop(self, runner, L):
        from nhgeo.kitaev import KitaevParams

        payload = json.loads(run_ok(runner, [
            "tensor", "--model", "kitaev-dissipative", "--set", "h=0.4", "--set", "gamma=0.8",
            "--set", f"L={L}", "--tensors", "bures"]).output)
        got = _components(payload, "bures")
        ref = self.per_k_loop(KitaevParams(0.4, 0.8, 0.1, 1.0, 0.6, L))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not got.imag.any()

    def test_matches_closed_form(self):
        from nhgeo.kitaev import KitaevParams, weak_coupling_tensors

        worst = 0.0
        for h in np.linspace(0.0, 2.0, 21):
            if h == 1.0:
                continue
            for gam in (0.3, 1.0, 1.7):
                p = KitaevParams(h, gam, 0.1, 1.0, 0.6, 128)
                s, c = np.sin(p.k_grid), np.cos(p.k_grid)
                D = (h - c) ** 2 + gam ** 2 * s ** 2
                dphis = (-gam * s / D, s * (h - c) / D)
                cos2 = np.cos(np.arctan2(gam * s, h - c)) ** 2
                lam2 = p.Lambda ** 2
                w = (1.0 - cos2) / (1.0 - lam2 * cos2) + cos2 / (1.0 + lam2 * cos2)
                ref = lam2 / 4 * np.array([[np.sum(w * a * b) for b in dphis] for a in dphis])
                got = weak_coupling_tensors(p, ["bures"])["bures"]
                worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
        assert worst <= 1e-12

    def test_weak_sweep_calls_no_eigh(self, monkeypatch):
        # every kind is a Bloch-angle sum: the 21 points of L = 128, 65
        # half-zone blocks each, make 2 passes of weak_coupling_sums and no
        # eigensolve
        calls, real = [], cli_mod.weak_coupling_sums
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args))
        monkeypatch.setattr(cli_mod, "weak_coupling_sums",
                            lambda ps, kinds: calls.append(len(ps)) or real(ps, kinds))
        adapter = cli_mod.KitaevAdapter()
        out = adapter.tensors(
            [adapter.params({"L": 128, "h": h}) for h in np.linspace(0, 2, 21)],
            ["zeta", "zeta_limited", "bures"], None, 0.0)
        assert calls == [15, 6]
        assert [type(r).__name__ for r in out].count("CriticalKPoint") == 1  # h = 1

    def test_pure_state_exit_3(self, runner):
        result = runner.invoke(main, [
            "tensor", "--model", "kitaev-dissipative", "--set", "mu_minus=0", "--tensors", "bures"])
        assert result.exit_code == 3
        assert "PureStateSingular: block 0:" in result.output

    def test_gap_closing_k_exit_3(self, runner):
        result = runner.invoke(main, [
            "tensor", "--model", "kitaev-dissipative", "--set", "h=1", "--tensors", "bures"])
        assert result.exit_code == 3
        assert "CriticalKPoint" in result.output

    @pytest.mark.parametrize("command, error", [
        (["tensor", "--set", "weak_coupling=0"], "ShapeMismatch: block 0: 2x2 block has non-finite"),
        (["spectrum"], "NonConvergence: block 0: rapidity block is not finite"),
    ])
    def test_overflowing_blocks_exit_3(self, runner, command, error):
        # x(k) overflows at h = 1e308: a RuntimeWarning (an error here) and a
        # LinAlgError traceback, both exit 1, before
        result = runner.invoke(main, [*command, "--model", "kitaev-dissipative",
                                      "--set", "h=1e308", "--set", "L=8"])
        assert result.exit_code == 3, result.output
        assert error in result.output

    def test_overflowing_weak_coupling_rows(self, runner, tmp_path):
        # D = (h - cos k)^2 + gamma^2 sin^2 k overflows: both rows were ok,
        # with NaN in every zeta_limited real part
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", "kitaev-dissipative", "--set", "L=8",
                        "--axis", "h:1e307:1e308:2", "--tensors", "zeta,zeta_limited",
                        "--output", str(out)])
        rows = out.read_text().splitlines()[2:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["NonConvergence"] * 2

    def test_overflowing_weak_coupling_tensor_exit_3(self):
        # a RuntimeWarning traceback with exit 1 before
        src = os.path.dirname(os.path.dirname(nhgeo.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r = subprocess.run([sys.executable, "-W", "error", "-m", "nhgeo.cli", "tensor",
                            "--model", "kitaev-dissipative", "--set", "h=1e308", "--set", "L=8"],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("NonConvergence: "), r.stderr

    def test_overflowing_bath_rows(self, runner, tmp_path):
        # g^2 overflows at g = 5e159: an OverflowError traceback, exit 1 and no CSV, before
        out = tmp_path / "x.csv"
        run_ok(runner, ["sweep", "--model", "kitaev-dissipative", "--set", "weak_coupling=0",
                        "--set", "L=4", "--axis", "g:0.1:1e160:3", "--output", str(out)])
        rows = out.read_text().splitlines()[2:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["ok", "ShapeMismatch", "ShapeMismatch"]

    @pytest.mark.parametrize("sets, kinds, error", [
        # Lambda = 1 exactly: every Bloch angle is a pure-state direction
        (["mu_plus=1e300"], "bures", "PureStateSingular: block 0:"),
        (["weak_coupling=0", "mu_minus=1e200"], "zeta", "ShapeMismatch: block 0:"),
    ])
    def test_overflowing_bath_exit_3(self, runner, sets, kinds, error):
        # mu^2 overflows: an OverflowError traceback with exit 1 before
        result = runner.invoke(main, ["tensor", "--model", "kitaev-dissipative", "--set", "L=4",
                                      *(a for s in sets for a in ("--set", s)), "--tensors", kinds])
        assert result.exit_code == 3, result.output
        assert error in result.output

    @pytest.mark.parametrize("kinds", ["bures", "zeta,bures", "zeta,zeta_limited"])
    def test_strong_coupling_exit_2_before_evaluation(self, runner, tmp_path, monkeypatch, kinds):
        calls = []
        monkeypatch.setattr(cli_mod, "zeta_ness_k_sums", lambda *args: calls.append(args))
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args))
        result = runner.invoke(main, [
            "tensor", "--model", "kitaev-dissipative", "--set", "weak_coupling=0",
            "--tensors", kinds])
        assert result.exit_code == 2 and "weak_coupling" in result.output
        result = runner.invoke(main, [
            "sweep", "--model", "kitaev-dissipative", "--set", "weak_coupling=0",
            "--axis", "h:0:2:5", "--tensors", kinds, "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2 and "weak_coupling" in result.output
        assert calls == []
        assert not (tmp_path / "x.csv").exists()


class TestTensorKinds:
    @pytest.mark.parametrize("args, kind", [
        (["--model", "nh-ssh"], "bures"),
        (["--model", "kitaev-dissipative"], "eta"),
        (["--model", "kitaev-dissipative"], "chi"),
    ])
    def test_kind_the_model_lacks_exit_2(self, runner, args, kind):
        result = runner.invoke(main, ["tensor", *args, "--tensors", f"zeta,{kind}"])
        assert result.exit_code == 2
        assert f"does not provide tensor {kind!r}" in result.output

    def test_matrix_file_rejects_bures_before_eigensolve(self, runner, tmp_path, monkeypatch):
        save_matrix(tmp_path / "K.json", np.diag([1.0, 2.0]))
        save_matrix(tmp_path / "d.json", np.eye(2))
        calls = []
        monkeypatch.setattr(cli_mod, "build_biortho", lambda *args, **kw: calls.append(args))
        result = runner.invoke(main, [
            "tensor", "--matrix-file", str(tmp_path / "K.json"),
            "--param-files", str(tmp_path / "d.json"), "--tensors", "eta,bures"])
        assert result.exit_code == 2 and "'bures'" in result.output
        assert calls == []

    @pytest.mark.parametrize("tensors", ["zeta,zeta", "zeta, eta,zeta"])
    def test_repeated_kind_exit_2(self, runner, tmp_path, tensors):
        result = runner.invoke(main, ["tensor", "--model", "nh-ssh", "--tensors", tensors])
        assert result.exit_code == 2 and "requested twice" in result.output
        result = runner.invoke(main, [
            "sweep", "--model", "nh-ssh", "--set", "L=8", "--axis", "t:0:1:3",
            "--tensors", tensors, "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2 and "requested twice" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args, critical, error", [
        (["--model", "nh-ssh", "--set", "t=0.25", "--set", "delta=0.5"], "t=1.5", "CriticalKPoint"),
        (["--model", "kitaev-dissipative", "--set", "h=0.4"], "h=1", "CriticalKPoint"),
        (["--model", "kitaev-dissipative", "--set", "h=0.4", "--set", "weak_coupling=0"], "h=1",
         "SingularPencil"),
    ], ids=["nh-ssh", "weak-coupling", "strong-coupling"])
    def test_no_kinds_prints_no_tensor(self, runner, args, critical, error):
        # every model returns only the kinds asked for; with none, its pass
        # still runs for its checks, so a gap closing on the grid exits 3
        base = ["tensor", *args, "--set", "L=16", "--tensors", ","]
        assert json.loads(run_ok(runner, base).output)["tensors"] == {}
        result = runner.invoke(main, base + ["--set", critical])
        assert result.exit_code == 3 and error in result.output, result.output


class TestMalformedSweepInput:
    @pytest.mark.parametrize("axis", ["t:0:1:3.5", "t:x:1:3", "t:0:1", "t:0:1:3:4",
                                      "t:nan:1:3", "t:0:inf:3", "t:-inf:1:3"])
    def test_axis_flag_exit_2(self, runner, tmp_path, axis):
        result = runner.invoke(main, [
            "sweep", "--model", "nh-ssh", "--axis", axis, "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert "--axis expects" in result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("content, message", [
        ("{not json", "is not JSON"),
        ("", "is not JSON"),
        ("[1, 2]", "is not an object"),
        ('"nh-ssh"', "is not an object"),
        ('{"model": "nh-ssh", "params": [1]}', "is not an object"),
        ('{"model": "nh-ssh", "axes": {"name": "t"}}', "is not an object"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "max": 1, "steps": 3}]}', "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": 0, "steps": 3}]}', "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": 0, "max": 1}]}', "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"min": 0, "max": 1, "steps": 3}]}', "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": 0, "max": 1, "steps": 3.5}]}',
         "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": "x", "max": 1, "steps": 3}]}',
         "needs a name"),
        ('{"model": "nh-ssh", "axes": ["t:0:1:3"]}', "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": NaN, "max": 1, "steps": 3}]}',
         "needs a name"),
        ('{"model": "nh-ssh", "axes": [{"name": "t", "min": 0, "max": Infinity, "steps": 3}]}',
         "needs a name"),
    ])
    def test_config_exit_2(self, runner, tmp_path, content, message):
        (tmp_path / "cfg.json").write_text(content)
        result = runner.invoke(main, [
            "sweep", "--config", str(tmp_path / "cfg.json"), "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_unreadable_config_exit_2(self, runner, tmp_path):
        # a directory passes click's existence check but cannot be read
        result = runner.invoke(main, [
            "sweep", "--config", str(tmp_path), "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert f"cannot read config {tmp_path}" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_config_output_not_a_string_exit_2(self, runner, tmp_path):
        cfg = {"model": "nh-ssh", "params": {"L": 8}, "output": 5,
               "axes": [{"name": "t", "min": 0.1, "max": 0.9, "steps": 3}]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = runner.invoke(main, ["sweep", "--config", str(tmp_path / "cfg.json")])
        assert result.exit_code == 2, result.output
        assert "a string 'output'" in result.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_exit_2(self, runner, tmp_path, monkeypatch, fmt, where):
        calls = []
        monkeypatch.setattr(cli_mod.SSHAdapter, "tensors", lambda *a, **k: calls.append(a))
        output = tmp_path / "missing" / "o.csv" if where == "missing directory" else tmp_path
        result = runner.invoke(main, [
            "sweep", "--model", "nh-ssh", "--set", "L=8", "--axis", "t:0.1:0.9:3",
            "--format", fmt, "--output", str(output)])
        assert result.exit_code == 2, result.output
        assert f"cannot write output {output}: not a file in a writable directory" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert calls == []

    @pytest.mark.parametrize("extra, message", [
        ({"mu_reg": "abc"}, "mu_reg must be a finite number"),
        ({"mu_reg": "0.5"}, "mu_reg must be a finite number"),
        ({"mu_reg": True}, "mu_reg must be a finite number"),
        ({"mu_reg": None}, "mu_reg must be a finite number"),
        ({"mu_reg": float("nan")}, "mu_reg must be a finite number"),
        ({"mu_reg": -0.5}, "mu_reg must be a finite number >= 0"),
        ({"format": "xml"}, "format must be 'csv' or 'json'"),
        ({"format": 1}, "format must be 'csv' or 'json'"),
        ({"params": {"L": 8, "bogus": 1}}, "unknown parameter 'bogus'"),
        ({"params": {"L": 8, "delta": float("nan")}}, "delta must be a finite number"),
        ({"params": {"L": 8, "delta": float("-inf")}}, "delta must be a finite number"),
        ({"params": {"L": 8, "delta": "inf"}}, "delta must be a finite number"),
        ({"params": {"L": 8, "delta": 10 ** 400}}, "delta must be a finite number"),
        ({"params": {"L": 8.7}}, "L=8.7: expected int"),
        ({"params": {"L": True}}, "L=True: expected int"),
        ({"tensor": "eta"}, "unknown key 'tensor'"),
        ({"bogus": 1}, "unknown key 'bogus'"),
        ({"threads": 2}, "unknown key 'threads'"),
        ({"axes": [{"name": "t", "min": 0.1, "max": 0.9, "steps": 3, "step": 2}]},
         "axis 't' has unknown key 'step'"),
    ])
    def test_config_value_exit_2(self, runner, tmp_path, extra, message):
        cfg = {"model": "nh-ssh", "params": {"L": 8},
               "axes": [{"name": "t", "min": 0.1, "max": 0.9, "steps": 3}], **extra}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = runner.invoke(main, [
            "sweep", "--config", str(tmp_path / "cfg.json"), "--output", str(tmp_path / "o.csv")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_config_keys_are_the_keys_sweep_reads(self):
        # a key read but not declared would exit 2 on a valid config, and one
        # declared but no longer read would be accepted and ignored
        src = inspect.getsource(cli_mod.cmd_sweep.callback) + inspect.getsource(cli_mod._load_config)
        assert set(re.findall(r"spec\.get\(\"(\w+)\"", src)) == set(cli_mod._CONFIG_KEYS)
        axis_src = inspect.getsource(cli_mod._axis_points)
        assert set(re.findall(r"axis\[[\"'](\w+)[\"']\]", axis_src)) == set(cli_mod._AXIS_KEYS)

    def test_config_string_parses_as_set(self, runner, tmp_path):
        # a config string means what it means after --set: "false" is false
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "kitaev-dissipative", "params": {"L": 8, "weak_coupling": "false"},
            "axes": [{"name": "h", "min": 0.2, "max": 0.6, "steps": 2}]}))
        run_ok(runner, ["sweep", "--config", str(cfg), "--output", str(tmp_path / "a.csv")])
        run_ok(runner, ["sweep", "--model", "kitaev-dissipative", "--set", "L=8",
                        "--set", "weak_coupling=false", "--axis", "h:0.2:0.6:2",
                        "--output", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--tensors", "zeta_limited",
                                      "--output", str(tmp_path / "c.csv")])
        assert result.exit_code == 2, result.output
        assert "provides only zeta without weak_coupling" in result.output

    def test_config_params_keep_their_values(self, runner, tmp_path):
        # values of the parameter's type are kept: the header shows them as given
        cfg = {"model": "nh-ssh", "params": {"L": 8, "delta": 0.25}, "mu_reg": 0,
               "axes": [{"name": "t", "min": 0.1, "max": 0.9, "steps": 3}]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        run_ok(runner, ["sweep", "--config", str(tmp_path / "cfg.json"),
                        "--output", str(tmp_path / "x.csv")])
        header = (tmp_path / "x.csv").read_text().splitlines()[0]
        assert " L=8 delta=0.25 " in header and header.endswith(" mu_reg=0.0")

    def test_negative_mu_reg_flag_exit_2(self, runner, tmp_path):
        args = ["sweep", "--model", "nh-ssh", "--set", "L=8", "--axis", "t:0.1:0.9:3",
                "--mu-reg", "-1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and "--mu-reg" in result.output, result.output
        result = runner.invoke(main, args + ["--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2 and "--mu-reg" in result.output, result.output
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("model", ["nh-ssh", "kitaev-dissipative"])
    def test_mu_reg_no_kind_reads_exit_2(self, runner, tmp_path, monkeypatch, source, model):
        # no sweepable model reads mu_reg: a nonzero value exits 2 before any evaluation
        calls = []
        monkeypatch.setattr(cli_mod.MODELS[model], "tensors", lambda *a: calls.append(a))
        args = ["sweep", "--model", model, "--set", "L=8", "--axis",
                "t:0.1:0.9:3" if model == "nh-ssh" else "h:0:2:3",
                "--output", str(tmp_path / "x.csv")]
        if source == "flag":
            args += ["--mu-reg", "0.5"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"mu_reg": 0.5}))
            args += ["--config", str(tmp_path / "cfg.json")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"mu_reg=0.5 is read only by the zeta of model matrix-file, not by model {model}" \
            in result.output
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["axis", "set", "config"])
    def test_weak_coupling_g_exit_2(self, runner, tmp_path, monkeypatch, source):
        # the weak-coupling tensors read no g, so every row of such a sweep would be equal
        calls = []
        monkeypatch.setattr(cli_mod.KitaevAdapter, "tensors", lambda *a: calls.append(a))
        args = {"axis": ["--axis", "g:0.1:0.9:3", "--set", "h=0.5"],
                "set": ["--axis", "h:0.1:0.9:3", "--set", "g=0.1"],
                "config": ["--axis", "h:0.1:0.9:3", "--config", str(tmp_path / "cfg.json")]}[source]
        (tmp_path / "cfg.json").write_text(json.dumps({"params": {"g": 0.3}}))
        result = runner.invoke(main, ["sweep", "--model", "kitaev-dissipative", "--set", "L=16",
                                      *args, "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert "read no g" in result.output and "weak_coupling=0" in result.output
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_tensor_reads_weak_coupling_g(self, runner):
        # its weak-coupling tensors do not, but the rapidities of its summary do
        out = [json.loads(run_ok(runner, ["tensor", "--model", "kitaev-dissipative", "--set", "L=8",
                                          "--set", f"g={g}"]).output) for g in (0.1, 0.3)]
        assert out[0]["tensors"] == out[1]["tensors"]
        assert out[0]["eigenvalue_summary"] != out[1]["eigenvalue_summary"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_mu_reg_flag_exit_2(self, runner, tmp_path, value):
        result = runner.invoke(main, [
            "sweep", "--model", "nh-ssh", "--axis", "t:0.1:0.9:3", "--mu-reg", value,
            "--format", "json", "--output", str(tmp_path / "x.json")])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_overflowing_axis_exit_2(self, runner, tmp_path, source):
        # max - min overflows: linspace would warn and make NaN grid points
        if source == "flag":
            args = ["--model", "nh-ssh", "--axis", "t:-1.7e308:1.7e308:3"]
        else:
            cfg = {"model": "nh-ssh",
                   "axes": [{"name": "t", "min": -1.7e308, "max": 1.7e308, "steps": 3}]}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = ["--config", str(tmp_path / "cfg.json")]
        result = runner.invoke(main, ["sweep", *args, "--tensors", "zeta",
                                      "--output", str(tmp_path / "x.csv")])
        assert result.exit_code == 2, result.output
        assert "axis 't'" in result.output and "overflows" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_config_axis_with_integer_bounds_keeps_its_header(self, runner, tmp_path):
        cfg = {"model": "nh-ssh", "params": {"L": 8},
               "axes": [{"name": "t", "min": 0, "max": 1, "steps": 3}]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        run_ok(runner, ["sweep", "--config", str(tmp_path / "cfg.json"),
                        "--output", str(tmp_path / "x.csv")])
        assert " axis=t:0:1:3 " in (tmp_path / "x.csv").read_text().splitlines()[0]
