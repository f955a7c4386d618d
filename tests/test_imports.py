"""The import contract: ``import k3latt`` binds its public names on first use,
and each CLI command loads only the modules it calls, in a bounded address space."""

import importlib
import json
import subprocess
import sys

import pytest

import k3latt
from test_cli import subprocess_env

# every public name of the package, by the module that defines it
PUBLIC = {
    "lattice": ["A2", "E8", "K3_LATTICE", "T_HESS", "U", "DegenerateLattice",
                "DimensionMismatch", "GramMatrix", "NotInDual", "OddLattice", "SNFResult",
                "as_vector", "determinant", "direct_sum", "discriminant_group",
                "is_dual_vector", "order_in_quotient", "pairing_modZ", "qnorm_mod2Z",
                "signature", "smith_normal_form", "sublattice_index_law", "twist"],
    "discforms": ["FiniteQF", "InvalidForm", "TooLarge", "parse_form_literal"],
    "binforms": ["CMSurd", "EmptyResult", "EvenBinaryForm", "MathFailure",
                 "UnimodularTransform", "apply_transform", "class_number", "cm_moduli",
                 "enumerate_reduced", "equivalent", "genus_partition", "hessian_embeddable",
                 "match_disc_form", "reduce"],
    "rank3": ["Ambiguous", "NoMatch", "Rank3Candidate", "is_small_discriminant",
              "transcendental_of_singular", "verify_candidate"],
    "ternary": ["IsotropyVerdict", "SearchTooLarge", "TernaryForm", "WrongSignature",
                "decide_isotropy", "find_isotropic", "is_simple_shioda_inose",
                "local_obstruction"],
    "nsverify": ["CurveConfig", "check_divisible_class", "generators_report"],
    "catalog": ["Catalog", "CatalogError", "load_catalog", "repro_section4", "repro_section5",
                "repro_table1"],
}
HEAVY = ("k3latt.discforms", "k3latt.catalog", "k3latt.rank3", "k3latt.ternary",
         "k3latt.nsverify", "numpy")


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    res = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return set(res.stderr.split())


def loaded_by_command(*argv: str) -> set[str]:
    code = ("import contextlib, io\nfrom k3latt.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0\n")
    return loaded_after(code)


def test_import_loads_no_submodule():
    mods = loaded_after("import k3latt\nassert k3latt.__version__")
    assert "k3latt" in mods
    assert not [m for m in mods if m.startswith("k3latt.")]


def test_public_names():
    assert sorted(k3latt.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(k3latt.__all__) == 64
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"k3latt.{module}")
        for name in names:
            assert getattr(k3latt, name) is getattr(mod, name), name
    assert set(k3latt.__all__) <= set(dir(k3latt))


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from k3latt import *", ns)
    assert set(k3latt.__all__) <= set(ns)
    assert ns["reduce"] is k3latt.binforms.reduce


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3latt.no_such_name
    with pytest.raises(ImportError):
        exec("from k3latt import no_such_name", {})


@pytest.mark.parametrize("argv", [("reduce", "[8 -2; -2 8]"), ("classnum", "84"),
                                  ("enumerate", "60")])
def test_cheap_commands_load_no_heavy_module(argv):
    assert not loaded_by_command(*argv) & set(HEAVY)


@pytest.mark.parametrize("target", ["table1", "section5"])
def test_repro_without_isotropy_loads_no_numpy(target):
    assert "numpy" not in loaded_by_command("repro", target)


@pytest.mark.parametrize("argv", [("repro", "section4"), ("isotropy", "[-4 -1 0; -1 -4 0; 0 0 2]"),
                                  ("simple", "[4 1 0; 1 4 0; 0 0 -2]")])
def test_split_isotropy_loads_no_numpy(argv):
    # each form splits off an orthogonal axis, so only the orbit sweep runs
    assert "numpy" not in loaded_by_command(*argv)


@pytest.mark.parametrize("argv", [("isotropy", "[-4 -1 0; -1 -4 0; 0 0 2]"),
                                  ("simple", "[4 1 0; 1 4 0; 0 0 -2]")])
def test_isotropy_path_loads_no_fractions(argv):
    # signature and the witness scan are integer kernels; importing fractions
    # (and decimal with it) would cost every isotropy verdict
    assert not loaded_by_command(*argv) & {"fractions", "decimal"}


NS_CONFIG = "M1 M2 M3\n-2 0 0\n0 -2 0\n0 0 -2\n1 1 1 / 2\n"
EVERY_COMMAND = [
    ("enumerate", "60"), ("reduce", "[8 -2; -2 8]"), ("equivalent", "[4 2; 2 16]", "[4 -2; -2 16]"),
    ("classnum", "84"), ("discform", "[2 1; 1 2]"), ("match", "15", "Z15(4/15)"),
    ("small", "30"), ("isotropy", "[-4 -1 0; -1 -4 0; 0 0 2]"),
    ("simple", "[4 1 0; 1 4 0; 0 0 -2]"), ("hessian", "[4 1; 1 4]"), ("cm-moduli", "[2 1; 1 8]"),
    ("ns-check", "CONFIG", "--rational-curves"), ("repro", "table1"), ("repro", "section4"),
    ("repro", "section5"),
]


def test_every_command_is_covered():
    from k3latt.cli import command_table
    assert {argv[0] for argv in EVERY_COMMAND} == set(command_table())


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_no_command_loads_dataclasses(argv, tmp_path):
    # importing dataclasses (and inspect with it) and the code @dataclass
    # generates per class would cost every run of the CLI
    config = tmp_path / "ns.txt"
    config.write_text(NS_CONFIG)
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    assert "dataclasses" not in loaded_by_command(*argv)


def test_section4_fits_in_128_mb():
    resource = pytest.importorskip("resource")
    cap = 128 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    res = subprocess.run([sys.executable, "-m", "k3latt.cli", "repro", "section4", "--json"],
                         env=subprocess_env(), preexec_fn=limit, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["passed"] and len(report["rows"]) == 3
