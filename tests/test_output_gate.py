import importlib.util
import json
import os

import numpy as np

from tpaopt import LevelSystem, make_grid, optimal_state_operator
from tpaopt.grids import write_kernel_csv

GATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "output_gate.py")


def load_gate():
    spec = importlib.util.spec_from_file_location("output_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_kernel_dump_difference_is_relative_to_the_largest_entry(tmp_path):
    # kernel.csv opens with '#' lines of grid numbers (the node count, 21, among them);
    # they are neither data nor column labels
    sys_ = LevelSystem(delta_detuning=1.0, delta_deviation=-0.5)
    kernel = optimal_state_operator(sys_, make_grid(sys_.omega_f / 2.0, 5.0, 0.5)).to_dense()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_kernel_csv(kernel, a)
    lines = a.read_text().splitlines()
    assert [line[0] for line in lines[:3]] == ["#"] * 3
    values = np.array([[float(c) for c in line.split(",")] for line in lines[3:]])
    largest = np.abs(values).max()
    row, col = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    cells = lines[3 + row].split(",")
    old = float(cells[col])
    cells[col] = "%.9g" % (old / 2.0)  # about half the largest entry is the difference
    new = float(cells[col])
    lines[3 + row] = ",".join(cells)
    b.write_text("\n".join(lines) + "\n")
    note = load_gate()._largest_difference(str(a), str(b))
    assert note == (f"; largest at line {4 + row}, {col + 1}: {old!r} -> {new!r}, "
                    f"{abs(old - new) / largest:.3g} of the largest magnitude {largest:.9g}")


def test_compare_reads_the_manifests_of_two_run_directories(tmp_path, capsys):
    entry = {"argv": ["schmidt"], "exit": 0, "stdout": "E_q = 2\n", "files": {"report.json": "1"}}
    runs = {"a": {"point": entry, "exit2": {**entry, "exit": 2, "files": {}}},
            "b": {"point": {**entry, "stdout": "E_q = 3\n", "stderr": ""}}}  # as none
    for run, manifest in runs.items():
        (tmp_path / run).mkdir()
        (tmp_path / run / "manifest.json").write_text(json.dumps(manifest))
    gate = load_gate()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert gate.main(["--compare", a, b]) == 1
    by_directory = capsys.readouterr().out
    assert by_directory.splitlines() == [
        f"exit2: only in {os.path.join(a, 'manifest.json')}",
        "point: stdout 'E_q = 2\\n' -> 'E_q = 3\\n'"]
    # manifest paths give the same lines
    assert gate.compare(os.path.join(a, "manifest.json"), os.path.join(b, "manifest.json")) == 2
    assert capsys.readouterr().out == by_directory
