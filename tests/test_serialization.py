import os

import pytest

from metricat.colimits import FinDiagram
from metricat.errors import SchemaError, SpaceValidationError
from metricat.extrat import INF, ExtRat, rat
from metricat.serialization import (
    diagram_from_json,
    diagram_to_json,
    dumps_canonical,
    family_from_json,
    family_to_json,
    loads,
    map_from_json,
    map_to_json,
    pair_from_json,
    pair_to_json,
    rat_from_json,
    rat_to_json,
    read_json,
    space_from_json,
    space_to_json,
    write_json,
)
from metricat.spaces import MetMap, one_point, two_point, validate_space

PATH3 = validate_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestRational:
    def test_round_trip(self):
        for text in ("0", "1", "3/2", "7/3", "inf"):
            w = []
            assert rat_to_json(rat_from_json(text, "", w)) == text
            assert w == []

    def test_infinity(self):
        assert rat_from_json("inf", "", []) is INF

    def test_non_canonical_fraction_warns(self):
        w = []
        assert rat_from_json("3/6", "/x", w) == rat("1/2")
        assert len(w) == 1 and "/x" in w[0]

    def test_bare_integer_warns(self):
        w = []
        assert rat_from_json(3, "/d", w) == ExtRat(3)
        assert len(w) == 1 and "/d" in w[0]

    def test_rejections(self):
        for bad in (True, -1, 1.5, None, [], "x", "1/0", "-2"):
            with pytest.raises(SchemaError):
                rat_from_json(bad, "", [])


class TestSpaceDocuments:
    def test_round_trip(self):
        assert space_from_json(space_to_json(PATH3)) == PATH3

    def test_labels_survive(self):
        space = two_point(1).relabel(("a", "b"))
        again = space_from_json(space_to_json(space))
        assert again.labels == ("a", "b")

    def test_canonical_bytes_are_stable(self):
        text = dumps_canonical(space_to_json(PATH3))
        again = space_from_json(loads(text))
        assert dumps_canonical(space_to_json(again)) == text

    def test_entry_pointer(self):
        doc = {"points": 2, "dist": [["0", "1"], ["1", "zebra"]]}
        with pytest.raises(SchemaError) as err:
            space_from_json(doc)
        assert err.value.pointer == "/dist/1/1"

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            space_from_json({"points": 1})

    def test_unexpected_key(self):
        doc = space_to_json(one_point())
        doc["extra"] = 1
        with pytest.raises(SchemaError) as err:
            space_from_json(doc)
        assert err.value.pointer == "/extra"

    def test_negative_points_pointer(self):
        with pytest.raises(SchemaError, match="points must be >= 0") as err:
            space_from_json({"points": -1, "dist": []}, "/K")
        assert err.value.pointer == "/K/points"

    def test_row_count_pointer(self):
        doc = {"points": 2, "dist": [["0", "1"]]}
        with pytest.raises(SchemaError) as err:
            space_from_json(doc)
        assert err.value.pointer == "/dist"

    def test_label_arity(self):
        doc = space_to_json(two_point(1))
        doc["labels"] = ["only-one"]
        with pytest.raises(SchemaError) as err:
            space_from_json(doc)
        assert err.value.pointer == "/labels"

    def test_metric_axioms_still_enforced(self):
        doc = {"points": 3, "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]]}
        with pytest.raises(SpaceValidationError):
            space_from_json(doc)

    def test_each_non_canonical_entry_warns(self):
        w = []
        doc = {"points": 3, "dist": [["0", "2/2", "1"], ["2/2", "0", "1"], ["1", "1", "0"]]}
        space = space_from_json(doc, "", w)
        assert space.dist == validate_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]]).dist
        assert len(w) == 2
        assert w[0].startswith("/dist/0/1:") and w[1].startswith("/dist/1/0:")

    def test_integer_entries_warn_but_load(self):
        w = []
        space = space_from_json({"points": 2, "dist": [[0, 1], [1, 0]]}, "", w)
        assert space.dist == two_point(1).dist
        assert w


class TestMapDocuments:
    def test_round_trip(self):
        m = MetMap(one_point(), PATH3, (1,))
        assert map_from_json(map_to_json(m)) == m

    def test_arity_pointer(self):
        doc = map_to_json(MetMap(two_point(1), two_point(1), (0, 1)))
        doc["map"] = [0]
        with pytest.raises(SchemaError) as err:
            map_from_json(doc)
        assert err.value.pointer == "/map"

    def test_range_pointer(self):
        doc = map_to_json(MetMap(two_point(1), two_point(1), (0, 1)))
        doc["map"] = [0, 7]
        with pytest.raises(SchemaError) as err:
            map_from_json(doc)
        assert err.value.pointer == "/map/1"

    def test_expansive_map_rejected(self):
        doc = {
            "dom": space_to_json(two_point(1)),
            "cod": space_to_json(two_point(2)),
            "map": [0, 1],
        }
        with pytest.raises(SchemaError) as err:
            map_from_json(doc)
        assert err.value.pointer == "/map"

    def test_reference_needs_resolver(self):
        doc = {"dom": "K.json", "cod": space_to_json(one_point()), "map": [0]}
        with pytest.raises(SchemaError) as err:
            map_from_json(doc)
        assert err.value.pointer == "/dom"

    def test_reference_resolved(self):
        doc = {"dom": "K.json", "cod": space_to_json(one_point()), "map": [0]}
        m = map_from_json(doc, resolver=lambda ref: {"K.json": one_point()}[ref])
        assert m.dom == one_point()


class TestPairDocuments:
    def test_round_trip(self):
        f = MetMap(one_point(), two_point(5), (0,))
        g = MetMap(one_point(), two_point(5), (1,))
        assert pair_from_json(pair_to_json(f, g)) == (f, g)

    def test_domains_must_agree(self):
        f = MetMap(one_point(), two_point(1), (0,))
        g = MetMap(two_point(1), two_point(1), (0, 1))
        with pytest.raises(SchemaError) as err:
            pair_from_json(pair_to_json(f, g))
        assert err.value.pointer == "/g/dom"

    def test_label_mismatch_is_normalized(self):
        dom = two_point(1)
        doc = {
            "f": map_to_json(MetMap(dom, two_point(1), (0, 1))),
            "g": map_to_json(MetMap(dom.relabel(("x", "y")), two_point(1), (0, 1))),
        }
        f, g = pair_from_json(doc)
        assert f.dom == g.dom


class TestDiagramDocuments:
    def diagram(self):
        a, b = one_point(), two_point(1)
        return FinDiagram((a, b), ((0, 1, MetMap(a, b, (0,))),))

    def test_round_trip(self):
        d = self.diagram()
        again = diagram_from_json(diagram_to_json(d))
        assert again.objects == d.objects
        assert again.arrows == d.arrows

    def test_src_range(self):
        doc = diagram_to_json(self.diagram())
        doc["arrows"][0]["src"] = 9
        with pytest.raises(SchemaError) as err:
            diagram_from_json(doc)
        assert err.value.pointer == "/arrows/0/src"

    def test_dst_range(self):
        doc = diagram_to_json(self.diagram())
        doc["arrows"][0]["dst"] = -1
        with pytest.raises(SchemaError, match="dst -1 out of range") as err:
            diagram_from_json(doc)
        assert err.value.pointer == "/arrows/0/dst"

    @pytest.mark.parametrize("objects, entries, pointer, message", [
        ((one_point(), two_point(1)), [5], "/arrows/0/map/0", "index 5 out of range"),
        ((one_point(), two_point(1)), [0, 1], "/arrows/0/map", "map has 2 entries"),
        ((two_point(1), two_point(2)), [0, 1], "/arrows/0/map", "not a valid morphism"),
    ], ids=["index-out-of-range", "wrong-length", "expanding"])
    def test_arrow_entry_pointer(self, objects, entries, pointer, message):
        doc = diagram_to_json(FinDiagram(objects, ()))
        doc["arrows"] = [{"src": 0, "dst": 1, "map": entries}]
        with pytest.raises(SchemaError, match=message) as err:
            diagram_from_json(doc)
        assert err.value.pointer == pointer


class TestFamilyDocuments:
    def test_round_trip(self):
        spaces = (one_point(), two_point(2))
        assert family_from_json(family_to_json(spaces)) == spaces

    def test_member_pointer(self):
        doc = {"spaces": [space_to_json(one_point()), {"points": 1}]}
        with pytest.raises(SchemaError) as err:
            family_from_json(doc)
        assert err.value.pointer == "/spaces/1"


class TestDocumentIo:
    def test_invalid_json(self):
        with pytest.raises(SchemaError) as err:
            loads("{not json")
        assert "invalid JSON" in str(err.value)

    def test_canonical_dump_sorts_keys(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "nested" / "doc.json")
        write_json(path, space_to_json(PATH3))
        assert read_json(path) == space_to_json(PATH3)
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == dumps_canonical(space_to_json(PATH3))

    def test_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json(path, {"x": 1})
        write_json(path, {"x": 2})
        assert sorted(os.listdir(tmp_path)) == ["doc.json"]
        assert read_json(path) == {"x": 2}
