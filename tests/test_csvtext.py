import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkheat import csvtext


def text_of(values):
    """write_block's text of a 2-D block."""
    f = io.BytesIO()
    csvtext.write_block(f, values, csvtext._Buffers(values.size))
    return f.getvalue()


def expected_text(values):
    """The reference: each value through Python's own "%.17g"."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in np.atleast_2d(values).tolist()).encode()


def used_block_peak(values):
    """The bytes traced while write_block writes values a second time on
    the same buffers."""
    class Sink:
        def write(self, text):
            pass

    work = csvtext._Buffers(values.size)
    csvtext.write_block(Sink(), values, work)
    tracemalloc.start()
    try:
        csvtext.write_block(Sink(), values, work)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


NAMED = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         1e-4, 1e-5, 9.9999999999999991e-5, 1.0000000000000001e-4, 1e16, 1e17,
         99999999999999984.0, 99999999999999999.0, 12345678901234567.0,
         1e-284, 1e-285, 1e300, 1.3e300, 1.4e300, 1e-100, -1e100, 0.1, 0.5, 1.0,
         -1.5, 100.0, 123456.0, 1.0000000000000039e-203, 1000000000000000.25]


class TestFormatBlock:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert text_of(values[None, :]) == expected_text(values)

    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        values = np.array(values, dtype=np.float64)
        assert text_of(values[:, None]) == expected_text(values[:, None])

    def test_named_cases(self):
        values = np.array(NAMED)
        assert text_of(values[:, None]) == expected_text(values[:, None])

    def test_powers_of_ten_and_neighbours(self):
        # log10 is one off next to some powers of ten
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.column_stack((p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p))
        assert text_of(values) == expected_text(values)

    def test_integers_are_their_decimal_text(self):
        n = np.arange(0.0, 30000.0).reshape(-1, 10)
        assert text_of(n) == "".join(
            ",".join(str(int(v)) for v in row) + "\n" for row in n.tolist()).encode()

    def test_buffers_are_reused_across_column_counts(self):
        # the row ends written for one column count must not leak into the
        # next block's text, nor be missing from a longer block of as many
        rng = np.random.default_rng(8)
        work = csvtext._Buffers(65)
        for shape in [(4, 7), (13, 5), (40, 1), (2, 7), (9, 7)]:
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
            f = io.BytesIO()
            csvtext.write_block(f, values, work)
            assert f.getvalue() == expected_text(values)

    def test_a_used_writers_blocks_allocate_only_their_text(self):
        # on buffers already used, a 40 x 201 block allocates one stretch's
        # text at a time and a few small arrays
        values = np.random.default_rng(9).standard_normal((40, 201))
        assert used_block_peak(values) <= 25 * csvtext.GATHER_VALUES + 8 * 1024

    def test_log10_off_values_allocate_only_their_own_arrays(self):
        # 383 values next to powers of ten, whose log10 is one off, in a
        # 40 x 201 block on a used writer: their second pass takes arrays of
        # their own size, about 67 bytes a value (a whole writer's buffers
        # took 211 KB)
        clean = np.random.default_rng(9).standard_normal((40, 201))
        near = clean.copy()
        near.reshape(-1)[::21] = np.resize([999.9999999999999, 9.999999999999999e-05,
                                            9.999999999999998e+16, -1e-06], 383)
        assert text_of(near) == expected_text(near)
        assert used_block_peak(near) <= used_block_peak(clean) + 100 * 383

    def test_each_distinct_slow_value_of_a_stretch_takes_one_format(self, monkeypatch):
        # a near-tie, nan and a value below the table, repeated over a
        # 40 x 201 block: one format() per distinct value of each stretch
        # of GATHER_VALUES values, not one per value (6,030)
        seen = []

        def spy(value, spec):
            seen.append(value)
            return format(value, spec)

        monkeypatch.setattr(csvtext, "format", spy, raising=False)
        values = np.resize(np.array([1000000000000000.25, np.nan, 1e-300, 0.5]), (40, 201))
        assert text_of(values) == expected_text(values)
        assert len(seen) == 3 * -(-values.size // csvtext.GATHER_VALUES)

    def test_only_undecided_values_take_format(self, monkeypatch):
        # 1000000000000000.25 is a tie at the 17th digit ("%.17g" rounds it
        # to even, ...0.2); non-finite and out-of-table values have no
        # fast path; everything else must not reach format()
        slow = [1000000000000000.25, np.nan, np.inf, 5e-324, 1.7976931348623157e308]
        fast = [0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17, 0.1, 1.0000000000000039e-203]
        seen = []

        def spy(value, spec):
            seen.append(value)
            return format(value, spec)

        monkeypatch.setattr(csvtext, "format", spy, raising=False)
        values = np.array([slow + fast])
        text = text_of(values)
        assert text == expected_text(values)
        assert text.startswith(b"1000000000000000.2,")
        assert len(seen) == len(slow)
        assert np.array_equal(np.array(seen), np.array(slow), equal_nan=True)


class TestWriteCsv:
    @pytest.mark.parametrize("budget", [1, 7, 200])
    def test_bytes_do_not_depend_on_the_block_budget(self, tmp_path, monkeypatch, budget):
        rng = np.random.default_rng(5)
        columns = [rng.standard_normal(97) * 10.0 ** rng.integers(-30, 30, 97)
                   for _ in range(11)]
        columns[3][::7] = np.nan
        columns[5][::5] = -0.0
        # the same columns as a mix of 1-D parts and 2-D parts (a row each)
        parts = [columns[0], np.array(columns[1:6]), columns[6], np.array(columns[7:])]
        csvtext.write_csv(tmp_path / "default.csv", "h", columns)
        monkeypatch.setattr(csvtext, "WRITE_BLOCK_VALUES", budget)
        csvtext.write_csv(tmp_path / "budget.csv", "h", columns)
        csvtext.write_csv(tmp_path / "parts.csv", "h", parts)
        text = (tmp_path / "default.csv").read_bytes()
        assert (tmp_path / "budget.csv").read_bytes() == text
        assert (tmp_path / "parts.csv").read_bytes() == text
        assert text == b"h\n" + expected_text(np.column_stack(columns))

    @pytest.mark.parametrize("budget", [1, 7, 200])
    def test_wide_parts(self, tmp_path, monkeypatch, budget):
        # fewer rows than columns, as profiles.csv of a long run on a coarse
        # mesh; the second 2-D part is a strided view, as q[:, :-1] is
        rng = np.random.default_rng(6)
        x, T = rng.standard_normal(3), rng.standard_normal((1000, 3))
        q = rng.standard_normal((999, 4))[:, :-1]
        monkeypatch.setattr(csvtext, "WRITE_BLOCK_VALUES", budget)
        csvtext.write_csv(tmp_path / "wide.csv", "h", [x, T, q])
        assert (tmp_path / "wide.csv").read_bytes() == b"h\n" + expected_text(
            np.column_stack([x, T.T, q.T]))

    # nan, a value below the table (1e-300), a near-tie and values whose
    # log10 is one off, cycled so that each lands on both sides of every
    # edge between the stretches gathered at a time
    SPECIAL = [np.nan, 1e-300, 1000000000000000.25, 999.9999999999999, -1e-06,
               9.999999999999999e-05, 9.999999999999998e+16, 0.1, -2.5]

    @pytest.mark.parametrize("gather", [1, 4, 512, 1024])
    @pytest.mark.parametrize("budget", [1, 7, 200, 2**13])
    def test_slow_and_off_values_at_stretch_edges(self, tmp_path, monkeypatch,
                                                  budget, gather):
        values = np.resize(np.array(self.SPECIAL), (11, 311))
        monkeypatch.setattr(csvtext, "WRITE_BLOCK_VALUES", budget)
        monkeypatch.setattr(csvtext, "GATHER_VALUES", gather)
        csvtext.write_csv(tmp_path / "edges.csv", "h", [values[0], values[1:]])
        assert (tmp_path / "edges.csv").read_bytes() == b"h\n" + expected_text(values.T)

    def test_block_working_set(self, tmp_path):
        # a 40 x 201 block, profiles.csv's shape with 100 kept levels: the
        # block, its buffers and the gather's, 1.30 MB traced, once the
        # tables are built (3.1 MB with a per-value gather index)
        rng = np.random.default_rng(7)
        x, T, q = rng.standard_normal(40), rng.standard_normal((100, 40)), \
            rng.standard_normal((100, 40))
        csvtext._tables()
        tracemalloc.start()
        try:
            csvtext.write_csv(tmp_path / "profiles.csv", "h", [x, T, q])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
        assert peak <= csvtext.GATHER_BYTES + csvtext.BYTES_PER_VALUE * 40 * 201
        assert (tmp_path / "profiles.csv").read_bytes() == b"h\n" + expected_text(
            np.column_stack([x, T.T, q.T]))
