"""Unit tests for the reporting helpers."""

from repro.experiments import format_table, to_csv


class TestFormatTable:
    def test_contains_headers_and_values(self):
        rows = [{"algorithm": "bond-energy", "DS": 2.4}, {"algorithm": "linear", "DS": 13.3}]
        text = format_table(rows, ["algorithm", "DS"], title="Table 1")
        assert "Table 1" in text
        assert "bond-energy" in text
        assert "13.3" in text

    def test_missing_values_render_empty(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "a" in text and "b" in text

    def test_booleans_render_yes_no(self):
        text = format_table([{"acyclic": True}, {"acyclic": False}], ["acyclic"])
        assert "yes" in text and "no" in text

    def test_float_format(self):
        text = format_table([{"x": 3.14159}], ["x"], float_format="{:.3f}")
        assert "3.142" in text


class TestCsv:
    def test_header_and_rows(self):
        csv_text = to_csv([{"a": 1, "b": 2}], ["a", "b"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"

    def test_extra_keys_ignored(self):
        csv_text = to_csv([{"a": 1, "zzz": 9}], ["a"])
        assert "zzz" not in csv_text
