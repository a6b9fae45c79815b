from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborboost.dataio import (
    PF_COLUMNS,
    FeatureRow,
    GrayImage,
    LabeledDataset,
    _pgm_header_tokens,
    flip_horizontal,
    load_dataset,
    load_csv_image,
    load_image,
    load_pgm,
    read_feature_table,
    reduce_classes,
    write_feature_table,
    write_pgm,
)
from gaborboost.errors import ConfigError, GaborboostError, ParseError, SchemaError, SizeError
from oracles import rows_close


def make_row(name="img_000", label="longitudinal", **overrides):
    values = dict(
        id=name,
        sigma_x=4.0,
        sigma_y=6.0,
        lam=0.7853981633974483,
        x_star=0.5,
        y_star=0.25,
        q_tl=1.25,
        q_tr=1.26,
        q_bl=0.5,
        q_br=0.75,
        egf_tl_bl=2.5,
        egf_tr_br=1.68,
        egf_tl_tr=0.992,
        egf_bl_br=0.667,
        label=label,
    )
    values.update(overrides)
    return FeatureRow(**values)


# ---------------------------------------------------------------------------
# images


def test_gray_image_rejects_bad_data():
    with pytest.raises(SizeError):
        GrayImage(np.zeros((0, 3)))
    with pytest.raises(ConfigError):
        GrayImage(np.array([[1.0, np.nan]]))
    with pytest.raises(SizeError):
        GrayImage(np.zeros(4))


def test_load_pgm_binary_normalizes_by_maxval(tmp_path):
    """2x2 maxval-255 raster {0,255,255,0} loads as {0,1,1,0}."""
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    img = load_image(path)
    np.testing.assert_array_equal(img.data, [[0.0, 1.0], [1.0, 0.0]])


def test_load_pgm_ascii_and_comments(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_text("P2\n# a comment\n3 1\n10\n0 5 10\n")
    img = load_image(path)
    np.testing.assert_allclose(img.data, [[0.0, 0.5, 1.0]])


def test_load_pgm_16bit_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    original = GrayImage(rng.random((9, 13)))
    path = tmp_path / "img.pgm"
    write_pgm(original, path)
    loaded = load_image(path)
    assert loaded.data.shape == (9, 13)
    # quantized to 16 bits on disk
    np.testing.assert_allclose(loaded.data, original.data, atol=1.0 / 65535)


def test_load_pgm_errors(tmp_path):
    bad_magic = tmp_path / "a.pgm"
    bad_magic.write_bytes(b"P7\n2 2\n255\n0000")
    with pytest.raises(ParseError, match="magic"):
        load_image(bad_magic)

    truncated = tmp_path / "b.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ParseError, match="truncated"):
        load_image(truncated)


@pytest.mark.parametrize("raw, message", [
    (b"P2\n2 2\n10\n0 1\n2 99\n", "line 5: pixel '99' is not an integer in 0..10"),
    (b"P2\n3 1\n10 0 -1\n5\n", "line 3: pixel '-1' is not an integer in 0..10"),
    (b"P2\n2 1\n10\n0 x\n", "line 4: pixel 'x' is not an integer in 0..10"),
    (b"P5\n2 2\n100\n" + bytes([0, 1, 250, 3]), r"pixel \(0, 1\) is 250, above maxval 100"),
    (b"P5\n2 1\n1000\n" + bytes([0, 0, 3, 233]), r"pixel \(1, 0\) is 1001, above maxval 1000"),
], ids=["p2-over", "p2-negative", "p2-word", "p5-8bit", "p5-16bit"])
def test_load_pgm_rejects_pixels_outside_maxval(tmp_path, raw, message):
    path = tmp_path / "over.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"over.pgm: {message}"):
        load_pgm(path)


def test_pgm_header_tokens_carry_their_lines(tmp_path):
    buf = b"P2# magic\n# whole line\n3 #glued\n\t1\r\n10\n0 5 10\n"
    tokens, raster_at = _pgm_header_tokens(buf, "x.pgm")
    assert tokens == [("P2", 1), ("3", 3), ("1", 4), ("10", 5)]
    assert buf[raster_at:] == b"0 5 10\n"
    path = tmp_path / "x.pgm"
    path.write_bytes(buf.replace(b"10\n", b"1x\n", 1))
    with pytest.raises(ParseError, match="line 5: bad header token '1x'"):
        load_pgm(path)
    path.write_bytes(b"P2\n# c\n3 1 # no newline")
    with pytest.raises(ParseError, match="line 3: truncated PGM header"):
        load_pgm(path)


@pytest.mark.parametrize("raw, message", [
    (b"P5\n+4 2\n255\n" + bytes(8), "line 2: bad header token '\\+4'"),
    (b"P5\n4 2\n2_55\n" + bytes(8), "line 3: bad header token '2_55'"),
], ids=["signed-width", "underscored-maxval"])
def test_pgm_header_fields_are_ascii_digits(tmp_path, raw, message):
    """int() would read "+4" as 4 and "2_55" as 255."""
    path = tmp_path / "x.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"x.pgm: {message}"):
        load_pgm(path)

def test_load_csv_image_scales_by_max_abs(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    img = load_image(path)
    np.testing.assert_allclose(img.data, [[0.25, 0.5], [0.75, 1.0]])


def test_load_csv_image_ragged_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="ragged row at line 2"):
        load_image(path)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,x\n", "line 2: non-numeric value"),
    ("1,2\n\n3,inf\n", "line 3: non-finite value inf"),
    ("", "empty CSV image"),
    ("1,2\n1_0,4\n", "line 2: non-numeric value"),  # float() would read 10.0
    ("1,2\n\u0662,4\n", "line 2: non-numeric value"),  # float() would read 2.0
])
def test_load_csv_image_bad_values(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_image(path)


@pytest.mark.parametrize("text, message", [
    ('1,2\n"3\n",4\n', r"m.csv: line 2: line break in value '3\\n'"),
    ('1,2\n3,"\r4"\n', r"m.csv: line 2: line break in value '\\r4'"),
], ids=["lf", "cr"])
def test_load_csv_image_rejects_line_breaks_in_values(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text, newline="")
    with pytest.raises(ParseError, match=message):
        load_csv_image(path)


def test_load_csv_image_allows_spaces_around_values(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1, 2\n 3 ,4\t\n")
    np.testing.assert_allclose(load_image(path).data, [[0.25, 0.5], [0.75, 1.0]])


def test_load_csv_image_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n \n\n3,4\n")
    np.testing.assert_allclose(load_image(path).data, [[0.25, 0.5], [0.75, 1.0]])


@settings(max_examples=200, deadline=None)
@example(data=b"P2\n2 1\n255\n0 9\n")
@example(data=b"0.5,\xff\n")
@example(data=b"P2# comment after the magic\n2 1\n255\n0 9\n")
@example(data=b"P5 2 2 # a comment with no newline")
@example(data=b"P2\n2#glued\n1 255#\n0 9\n")
@given(data=st.one_of(st.binary(max_size=64),
                      st.builds(bytes.__add__, st.sampled_from([b"P2\n", b"P5\n"]),
                                st.binary(max_size=64))))
def test_image_parsers_raise_only_library_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("image") / "img"
    path.write_bytes(data)
    for parse in (load_pgm, load_csv_image):
        try:
            image = parse(path)
        except GaborboostError:
            continue
        assert np.isfinite(image.data).all()


def test_load_image_format_inference(tmp_path):
    path = tmp_path / "m.dat"
    path.write_text("1,2\n")
    with pytest.raises(ConfigError, match="infer"):
        load_image(path)


# ---------------------------------------------------------------------------
# transforms


def test_flip_horizontal_reverses_columns():
    img = GrayImage(np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(flip_horizontal(img).data, [[3.0, 2.0, 1.0]])


def test_flip_horizontal_is_involution():
    rng = np.random.default_rng(3)
    img = GrayImage(rng.random((5, 8)))
    np.testing.assert_array_equal(flip_horizontal(flip_horizontal(img)).data, img.data)


def test_flip_horizontal_fixed_point():
    img = GrayImage(np.array([[1.0, 2.0, 1.0]]))
    np.testing.assert_array_equal(flip_horizontal(img).data, img.data)


def test_reduce_classes_merges_and_flips():
    top = GrayImage(np.array([[1.0, 0.0]]))
    bottom = GrayImage(np.array([[0.0, 1.0]]))
    ds = LabeledDataset([top, bottom], ["top", "bottom"], ["a", "b"])
    merged = reduce_classes(
        ds, {"top": "partial", "bottom": "partial"}, flip_set={"bottom"}
    )
    assert merged.labels == ["partial", "partial"]
    assert len(merged) == 2
    np.testing.assert_array_equal(merged.images[0].data, top.data)
    np.testing.assert_array_equal(merged.images[1].data, [[1.0, 0.0]])


def test_reduce_classes_identity():
    ds = LabeledDataset([GrayImage(np.ones((2, 2)))], ["vortex"], ["v"])
    out = reduce_classes(ds, {"vortex": "vortex"})
    assert out.labels == ds.labels
    np.testing.assert_array_equal(out.images[0].data, ds.images[0].data)


def test_labeled_dataset_rejects_unequal_lengths():
    with pytest.raises(ConfigError, match="equal length"):
        LabeledDataset([GrayImage(np.ones((2, 2)))], ["vortex", "vortex"], ["v"])


def test_reduce_classes_unmapped_label():
    ds = LabeledDataset([GrayImage(np.ones((2, 2)))], ["canted"], ["c"])
    with pytest.raises(ConfigError, match="canted"):
        reduce_classes(ds, {"longitudinal": "longitudinal"})


# ---------------------------------------------------------------------------
# datasets


def test_load_dataset_sorted_by_filename(tmp_path):
    for name, shade in (("b.pgm", 10), ("a.pgm", 20)):
        (tmp_path / name).write_bytes(b"P5\n1 1\n255\n" + bytes([shade]))
    (tmp_path / "labels.csv").write_text("filename,label\nb.pgm,beta\na.pgm,alpha\n")
    ds = load_dataset(tmp_path)
    assert ds.names == ["a.pgm", "b.pgm"]
    assert ds.labels == ["alpha", "beta"]
    assert ds.classes == ["alpha", "beta"]


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(ParseError, match="labels.csv"):
        load_dataset(tmp_path)


def test_manifest_and_table_skip_blank_lines(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5\n1 1\n255\n" + bytes([20]))
    (tmp_path / "labels.csv").write_text("filename,label\n \na.pgm,alpha\n\t\n")
    assert load_dataset(tmp_path).names == ["a.pgm"]
    table = tmp_path / "table.csv"
    write_feature_table([make_row()], table)
    header, row = table.read_text().splitlines()
    table.write_text(f"{header}\n  \n\n{row}\n \n")
    assert read_feature_table(table) == [make_row()]


# A quoted field that spans two lines shifts every later record by one line.
@pytest.mark.parametrize("name, text, message", [
    ("img.csv", '1,2\n"3\n",4\n5\n', "ragged row at line 4"),
    ("labels.csv", 'filename,label\n"a\nb.pgm",x\nc.pgm\n', "ragged row at line 4"),
    ("labels.csv", 'filename,label\n"a\nb.pgm",x\nc.pgm,y\n\nc.pgm,z\n',
     "'c.pgm' listed twice, at lines 4 and 6"),
], ids=["image-ragged", "manifest-ragged", "manifest-repeated"])
def test_csv_errors_name_physical_lines(tmp_path, name, text, message):
    (tmp_path / name).write_text(text)
    with pytest.raises(ParseError, match=message):
        load_dataset(tmp_path) if name == "labels.csv" else load_image(tmp_path / name)


def test_feature_table_errors_name_physical_lines(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row("a\nb.pgm"), make_row("img_001", q_tl=7.5)], path)
    path.write_text(path.read_text().replace("7.5", "oops"))
    with pytest.raises(ParseError, match="line 4: bad value 'oops' in q_tl"):
        read_feature_table(path)


def test_feature_table_rejects_digit_group_underscores(tmp_path):
    """float() reads "1_2" as 12.0; a table cell must be a plain number."""
    path = tmp_path / "table.csv"
    write_feature_table([make_row("img_001", q_tl=7.5)], path)
    path.write_text(path.read_text().replace("7.5", "1_2"))
    with pytest.raises(ParseError, match="line 2: bad value '1_2' in q_tl"):
        read_feature_table(path)


def test_feature_table_rejects_non_ascii_digits(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row("img_001", q_tl=7.5)], path)
    path.write_text(path.read_text().replace("7.5", "\u0667.\u0665"))
    with pytest.raises(ParseError, match="line 2: bad value '\u0667.\u0665' in q_tl"):
        read_feature_table(path)


def test_load_dataset_header_check(tmp_path):
    (tmp_path / "labels.csv").write_text("file,cls\nx.pgm,a\n")
    with pytest.raises(SchemaError, match="filename,label"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# feature tables


def test_feature_table_roundtrip(tmp_path):
    rows = [make_row(f"img_{i:03d}", label) for i, label in enumerate(["a", "b", "a"])]
    path = tmp_path / "table.csv"
    write_feature_table(rows, path)
    back = read_feature_table(path)
    assert len(back) == 3
    assert all(rows_close(x, y) for x, y in zip(rows, back))


def test_feature_table_roundtrip_with_pf(tmp_path):
    row = make_row(
        pf_amp=0.31, pf_center=60.2, pf_width=5.5, pf_skew=-0.08, pf_offset=0.02
    )
    failed = make_row(
        "img_001",
        pf_amp=float("nan"),
        pf_center=float("nan"),
        pf_width=float("nan"),
        pf_skew=float("nan"),
        pf_offset=float("nan"),
    )
    path = tmp_path / "table.csv"
    write_feature_table([row, failed], path)
    back = read_feature_table(path)
    assert back[0].has_pf and not back[0].pf_failed
    assert back[1].pf_failed
    assert rows_close(row, back[0])
    assert rows_close(failed, back[1])


# Commas, quotes and newlines need CSV quoting; spaces must survive without it.
TABLE_TEXT = st.text(st.sampled_from('ab ,"\n\r.'), max_size=8)
FLOAT_FIELDS = [f.name for f in fields(FeatureRow) if f.name not in ("id", "label", "roi_clamped")]


@st.composite
def feature_rows(draw):
    """Rows of one schema, with distinct ids and non-empty labels, whose
    strings need CSV quoting and whose floats span NaN, the infinities,
    signed zeros and subnormals."""
    with_pf = draw(st.booleans())
    names = [n for n in FLOAT_FIELDS if with_pf or n not in PF_COLUMNS]
    return [
        FeatureRow(id=row_id, label=draw(TABLE_TEXT.filter(bool)),
                   **{name: draw(st.floats()) for name in names})
        for row_id in draw(st.lists(TABLE_TEXT, max_size=4, unique=True))
    ]


def _exact(row):
    # repr tells -0.0 from 0.0 and maps every NaN to "nan".
    return tuple(repr(getattr(row, f.name)) for f in fields(row))


@settings(max_examples=60, deadline=None)
@example(rows=[make_row('a,b "c".pgm', 'la bel,"x"', q_tl=float("nan"), q_tr=float("inf"),
                        q_bl=float("-inf"), q_br=-0.0, x_star=5e-324)])
@example(rows=[make_row("a\rb.pgm", "x\r"), make_row()])
@given(rows=feature_rows())
def test_feature_table_round_trips_any_row(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("table")
    write_feature_table(rows, tmp / "first.csv")
    back = read_feature_table(tmp / "first.csv")
    write_feature_table(back, tmp / "second.csv")
    assert (tmp / "second.csv").read_bytes() == (tmp / "first.csv").read_bytes()
    assert [_exact(r) for r in back] == [_exact(r) for r in rows]


def test_feature_table_empty_writes_header_only(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([], path)
    text = path.read_text()
    assert text.startswith("id,sigma_x,sigma_y,lambda,x_star,y_star,")
    assert text.count("\n") == 1
    assert read_feature_table(path) == []


def test_feature_table_header_order(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row()], path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "id,sigma_x,sigma_y,lambda,x_star,y_star,q_tl,q_tr,q_bl,q_br,"
        "egf_tl_bl,egf_tr_br,egf_tl_tr,egf_bl_br,label"
    )


def test_feature_table_unknown_column(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row()], path)
    text = path.read_text().replace("egf_tl_tr", "egf_mystery")
    path.write_text(text)
    with pytest.raises(SchemaError, match="egf_mystery"):
        read_feature_table(path)


def test_feature_table_rejects_mixed_schemas(tmp_path):
    with_pf = make_row(pf_amp=1.0, pf_center=2.0, pf_width=3.0, pf_skew=0.0, pf_offset=0.1)
    with pytest.raises(SchemaError, match="mix"):
        write_feature_table([make_row(), with_pf], tmp_path / "t.csv")


def test_feature_table_rejects_repeated_id(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row("img_000"), make_row("img_001"), make_row("img_000")], path)
    with pytest.raises(ParseError, match="'img_000' listed twice, at lines 2 and 4"):
        read_feature_table(path)


def test_feature_table_bad_value(tmp_path):
    path = tmp_path / "table.csv"
    write_feature_table([make_row()], path)
    path.write_text(path.read_text().replace("1.25", "not-a-number"))
    with pytest.raises(ParseError, match="line 2"):
        read_feature_table(path)
