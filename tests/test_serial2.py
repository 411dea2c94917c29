"""Tests for the CAIDA serial-2 reader/writer."""

import pytest

from repro.topology import (
    Relationship,
    Serial2FormatError,
    dump_serial2,
    dumps_serial2,
    graph_from_edges,
    load_serial2,
    parse_serial2,
)


SAMPLE = """\
# inferred relationships
# provider|customer|-1  /  peer|peer|0
701|7018|0
701|65001|-1
7018|65002|-1
"""


class TestParsing:
    def test_parse_sample(self):
        graph = parse_serial2(SAMPLE.splitlines())
        assert graph.relationship(701, 7018) is Relationship.PEER
        assert graph.relationship(65001, 701) is Relationship.PROVIDER
        assert graph.providers(65002) == {7018}

    def test_comments_and_blank_lines_skipped(self):
        graph = parse_serial2(["# comment", "", "1|2|-1", "   "])
        assert len(graph) == 2

    def test_malformed_line_raises_with_location(self):
        with pytest.raises(Serial2FormatError) as err:
            parse_serial2(["1|2|-1", "not-a-line"])
        assert err.value.line_number == 2

    def test_non_integer_field(self):
        with pytest.raises(Serial2FormatError):
            parse_serial2(["a|b|-1"])

    def test_unknown_relationship_code(self):
        with pytest.raises(Serial2FormatError):
            parse_serial2(["1|2|7"])

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("1|2|0", "edge 1-2 already exists"),
            ("2|1|-1", "edge 2-1 already exists"),
            ("3|3|0", "self-loop 3-3"),
            ("-4|5|-1", "non-negative int"),
        ],
        ids=["duplicate", "reverse duplicate", "self-loop", "negative"],
    )
    def test_bad_edge_raises_with_location_in_strict_mode(self, bad, reason):
        with pytest.raises(Serial2FormatError, match=reason) as err:
            parse_serial2(["# header", "1|2|-1", bad, "5|6|0"])
        assert err.value.line_number == 3
        graph = parse_serial2(["1|2|-1", bad, "5|6|0"], strict=False)
        assert list(graph.edges()) == list(
            graph_from_edges(customer_provider=[(2, 1)], peerings=[(5, 6)]).edges()
        )

    def test_lenient_mode_skips_bad_lines(self):
        graph = parse_serial2(
            ["1|2|-1", "garbage", "3|4|9", "1|2|0", "5|6|0"], strict=False
        )
        assert graph.has_edge(1, 2)
        assert graph.has_edge(5, 6)
        assert 3 not in graph


class TestWriting:
    def test_roundtrip(self, small_graph):
        text = dumps_serial2(small_graph)
        parsed = parse_serial2(text.splitlines())
        assert list(parsed.edges()) == list(small_graph.edges())

    def test_header_written_as_comments(self):
        graph = graph_from_edges(customer_provider=[(2, 1)])
        text = dumps_serial2(graph, header="line one\nline two")
        assert text.startswith("# line one\n# line two\n")

    def test_file_roundtrip(self, tmp_path, small_graph):
        path = tmp_path / "rels.txt"
        dump_serial2(small_graph, path, header="test")
        loaded = load_serial2(path)
        assert len(loaded) == len(small_graph)
        assert loaded.num_peer_links == small_graph.num_peer_links
        assert (
            loaded.num_customer_provider_links
            == small_graph.num_customer_provider_links
        )

    def test_serial2_convention_provider_first(self):
        graph = graph_from_edges(customer_provider=[(65001, 701)])
        assert dumps_serial2(graph).strip() == "701|65001|-1"
