"""Atomic writes, digests, and byte-exact table round trips."""

import os

import numpy as np
import pytest

from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.errors import ValidationError
from rydghz.fileio import (
    TableData,
    atomic_write_text,
    format_cell,
    read_json,
    read_table,
    sha256_of_file,
    sha256_of_text,
    stable_json,
)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first\n")
        assert path.read_text() == "first\n"
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_digests_agree(self, tmp_path):
        path = tmp_path / "data.txt"
        text = "0.25,0.5\n" * 100
        atomic_write_text(path, text)
        assert sha256_of_file(path) == sha256_of_text(text)


class TestStableJson:
    def test_sorted_keys_and_newline(self):
        text = stable_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"y"') < text.index('"z"')

    def test_file_roundtrip(self, tmp_path):
        payload = {"grid": [0.0, 0.5], "n": 4}
        path = tmp_path / "doc.json"
        atomic_write_text(path, stable_json(payload))
        assert read_json(path) == payload


class TestFormatCell:
    def test_kinds(self):
        assert format_cell(3) == "3"
        assert format_cell(np.int64(-2)) == "-2"
        assert format_cell(0.25) == "0.25"
        assert format_cell(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
        assert format_cell("0101") == "0101"
        with pytest.raises(ValidationError):
            format_cell(True)


class TestTableData:
    def build(self):
        return TableData.from_columns(
            "rydghz-demo",
            [
                ("step", np.arange(4)),
                ("value", np.array([0.1, 1.0 / 3.0, -2.5, 4.0])),
                ("label", ["a", "b", "c", "d"]),
            ],
            metadata=(("n_sites", "4"), ("note", "demo table")),
        )

    def test_text_roundtrip_is_byte_identical(self):
        table = self.build()
        text = table.to_text()
        again = TableData.from_text(text).to_text()
        assert again == text

    def test_columns_parse_back(self):
        table = self.build()
        parsed = TableData.from_text(table.to_text())
        assert np.array_equal(parsed.column("step"), np.arange(4.0))
        assert parsed.column("value")[1] == 1.0 / 3.0
        assert parsed.metadata_value("note") == "demo table"
        assert parsed.n_rows == 4
        assert parsed.name == "rydghz-demo"

    def test_file_roundtrip(self, tmp_path):
        table = self.build()
        path = tmp_path / "demo.csv"
        atomic_write_text(path, table.to_text())
        assert read_table(path).to_text() == table.to_text()
        assert sha256_of_file(path) == sha256_of_text(table.to_text())

    def test_validation(self):
        with pytest.raises(ValidationError):
            TableData("t", ("a", "b"), (("1",),))
        with pytest.raises(ValidationError):
            TableData.from_columns("t", [("a", [1, 2]), ("b", [1.0])])
        table = self.build()
        with pytest.raises(ValidationError):
            table.column("missing")
        with pytest.raises(ValidationError):
            table.metadata_value("missing")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValidationError, match="line 2"):
            TableData.from_text("# name\n1,2\n# columns: a,b\n")
        with pytest.raises(ValidationError, match="line 3"):
            TableData.from_text("# name\n# columns: a,b\n1,2,3\n")
        with pytest.raises(ValidationError):
            TableData.from_text("")

    def test_module_tables_roundtrip(self):
        # Formats emitted elsewhere in the package parse and re-emit
        # byte-identically through the shared reader.
        from rydghz.hamiltonian import build_terms
        from rydghz.noise import NoiseModel, decohered_ghz_coherence
        from rydghz.propagate import ghz_state
        from rydghz.protocols import parity_oscillation_scan

        basis = enumerate_basis(ChainGeometry(4))
        terms = build_terms(basis)
        ghz = ghz_state(basis, 0.0)
        scan_text = parity_oscillation_scan(ghz, terms, 3.8, readout=0.07).to_table()
        assert TableData.from_text(scan_text).to_text() == scan_text

        decay_text = decohered_ghz_coherence(
            ghz, NoiseModel.doppler_only(), np.linspace(0.0, 2.0, 5), n_realizations=16
        ).to_table()
        assert TableData.from_text(decay_text).to_text() == decay_text
