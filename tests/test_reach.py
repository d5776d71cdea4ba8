"""Reach guard: every function of the library runs on some CLI path.

A handful of tiny CLI invocations, which between them cover every
subcommand, ``--config``, ``--codebook-out``, ``--save-channel`` and
``--channel-file``, ``--shared``, codebook, oracle and alpha-0 feedback, a
seed past 2^64 and one failing dof-sweep trial, run under
``sys.setprofile``. Every ``def`` in the package must be entered, apart
from the names in `ALLOWED`, each with the reason it stays. A function
that only tests reach is API to delete.
"""

import ast
import sys
from pathlib import Path

import iafb
import iafb.cli as cli
import iafb.quantizer as quantizer
import iafb.rng as rng
from iafb.cli import main

PACKAGE = Path(iafb.__file__).parent

# qualified name -> why it stays although no CLI invocation enters it
ALLOWED = {
    "sum_dist_sq_cdf": "the nested-span fixture of bench/tests (it calls empirical_ball_cdf)",
    "empirical_ball_cdf": "acceptance criterion 1's estimator, and the benchmark tracer's leaf span",
}


def library_defs():
    """(file, first line) -> qualified name of every def in the package.

    The first line is the one the function's code object reports: its
    first decorator's, or the ``def`` line.
    """
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, prefix + child.name + ".", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path))
    return found


def invocations(tmp):
    """The argv of each tiny CLI run; each writes its own output under `tmp`."""
    config = tmp / "run.cfg"
    config.write_text("engine=leakage-min\nK=3\nR=2\nL=2\nn=1\nshared=1\nmax_iters=60\n")
    chan = str(tmp / "chan.txt")
    runs = [
        ["volume-check", "--pairs", "2:1", "--deltas", "0.5", "--trials", "1000"],
        # 12 bits at n=2, K=1 take the pruned nearest-neighbour search
        ["quantizer-scaling", "--bits", "2,3,12", "--trials", "200", "--codebook-out", str(tmp / "cb_")],
        ["ia-run", "--engine", "cj3", "--feedback", "codebook", "--bits", "4", "--save-channel", chan],
        ["ia-run", "--engine", "cj3", "--feedback", "oracle", "--channel-file", chan],
        ["ia-run", "--engine", "cj3", "--feedback", "oracle", "--alpha", "0"],
        ["ia-run", "--config", str(config)],
        # a seed of 2^96 makes every stream's entropy longer than the 4-word pool
        ["dof-sweep", "--feedback", "oracle", "--alphas", "0,1", "--trials", "1", "--p-log2-max", "6",
         "--seed", str(2**96)],
        ["dof-sweep", "--engine", "leakage-min", "--feedback", "perfect", "--trials", "1", "--p-log2-max", "6"],
        ["dof-sweep", "--n", "16", "--trials", "1", "--p-log2-max", "6"],  # its one trial fails
        ["mimo-reduce"],
    ]
    return [argv + ["--out", str(tmp / f"run{r}.out")] for r, argv in enumerate(runs)]


def test_every_function_is_reached(tmp_path, capsys):
    defs = library_defs()
    files = {path for path, _ in defs}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = invocations(tmp_path)
    # the runs enter the argparse tree's builder, the seed-words class's
    # factory and the embedding's index pairs as a fresh process would,
    # whatever earlier tests built
    cli._build_parser.cache_clear()
    rng._seed_words_type.cache_clear()
    quantizer._upper_pairs.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    # every run got past its usage checks; gates may pass (0) or not (1)
    assert 2 not in codes
    assert "# failed trial=0 " in (tmp_path / "run8.out").read_text()
    names = set(defs.values())
    assert set(ALLOWED) <= names, f"allow-listed names that no longer exist: {sorted(set(ALLOWED) - names)}"
    reached = {defs[key] for key in entered if key in defs}
    assert not set(ALLOWED) & reached, f"allow-listed but reached: {sorted(set(ALLOWED) & reached)}"
    unreached = sorted(names - reached - set(ALLOWED))
    assert unreached == [], f"functions no CLI invocation enters: {unreached}"
