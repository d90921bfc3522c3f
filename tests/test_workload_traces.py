"""Trace serialization round-trip and replay-equivalence tests, and the
loader's contract on damaged input: a trace or :class:`TraceError`."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.txpool.transaction import Transaction
from repro.workload.traces import (
    TraceError,
    dump_trace,
    load_trace,
    load_trace_file,
    save_trace_file,
)


def tx(sender=1, to=2, value=0, data=b"", nonce=0, price=10, tag=""):
    return Transaction(
        address_from_int(sender),
        address_from_int(to) if to is not None else None,
        value,
        data,
        60_000,
        price,
        nonce,
        tag=tag,
    )


class TestRoundTrip:
    def test_simple(self):
        blocks = [[tx(), tx(nonce=1)], [tx(sender=3)]]
        assert load_trace(dump_trace(blocks)) == blocks

    def test_create_tx(self):
        blocks = [[tx(to=None, data=b"\x60\x00")]]
        loaded = load_trace(dump_trace(blocks))
        assert loaded[0][0].to is None
        assert loaded == blocks

    def test_huge_value_preserved(self):
        blocks = [[tx(value=2**200)]]
        assert load_trace(dump_trace(blocks))[0][0].value == 2**200

    def test_tag_preserved(self):
        blocks = [[tx(tag="erc20")]]
        assert load_trace(dump_trace(blocks))[0][0].tag == "erc20"

    def test_file_round_trip(self, tmp_path):
        blocks = [[tx(), tx(sender=5, data=b"\x01\x02")]]
        path = str(tmp_path / "trace.json")
        save_trace_file(path, blocks, note="unit test")
        assert load_trace_file(path) == blocks

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.builds(
                    tx,
                    sender=st.integers(1, 50),
                    to=st.one_of(st.none(), st.integers(1, 50)),
                    value=st.integers(0, 2**256 - 1),
                    data=st.binary(max_size=40),
                    nonce=st.integers(0, 100),
                    price=st.integers(0, 500),
                ),
                max_size=5,
            ),
            max_size=4,
        )
    )
    def test_property_round_trip(self, blocks):
        assert load_trace(dump_trace(blocks)) == blocks


class TestValidation:
    def test_garbage_rejected(self):
        with pytest.raises(TraceError):
            load_trace("not json {")

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "something-else", "version": 1, "blocks": []}')

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "repro-workload-trace", "version": 99, "blocks": []}')

    def test_missing_blocks_rejected(self):
        with pytest.raises(TraceError):
            load_trace('{"format": "repro-workload-trace", "version": 1}')

    def test_bad_tx_record_rejected(self):
        doc = (
            '{"format": "repro-workload-trace", "version": 1,'
            ' "blocks": [[{"sender": "zz"}]]}'
        )
        with pytest.raises(TraceError):
            load_trace(doc)


def _valid_doc():
    blocks = [[tx(tag="erc20"), tx(to=None, data=b"\x60\x00", nonce=1)], [tx(sender=3)]]
    return json.loads(dump_trace(blocks, note="robustness"))


def _doc_with(path, value):
    doc = _valid_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(doc)


def _loads_or_trace_error(text):
    """The contract: block lists of transactions, or ``TraceError``
    (``None``); any other exception fails the calling test by propagating."""
    try:
        blocks = load_trace(text)
    except TraceError:
        return None
    assert all(isinstance(t, Transaction) for block in blocks for t in block)
    repr(blocks)  # every field is of its declared type, so this formats
    return blocks


@pytest.mark.robustness
class TestStrayExceptions:
    """Each case escaped as another exception before the loader checked
    shapes: ``TypeError`` for a block that is no array, ``OverflowError``
    for an infinite number, ``RecursionError`` for the nesting,
    ``UnicodeDecodeError`` for a file that is no text; a tag of another
    type was accepted into a transaction whose ``repr`` raised; a number
    that is no integer was truncated (``1.5`` loaded as 1, ``true`` as 1)
    and a string ``int()`` accepts (``" 5"``, ``"1_000"``) was parsed."""

    @pytest.mark.parametrize("block", [5, None, "abc", {"sender": "00"}], ids=["int", "null", "string", "object"])
    def test_a_block_that_is_not_an_array(self, block):
        with pytest.raises(TraceError):
            load_trace(_doc_with(("blocks", 1), block))

    @pytest.mark.parametrize("field", ["gas_limit", "nonce", "gas_price"])
    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN", "Infinity", "1.5", "2.0", "true", "false", '"7"'])
    def test_a_number_no_integer_holds(self, field, literal):
        text = _doc_with(("blocks", 0, 0, field), "@").replace('"@"', literal)
        with pytest.raises(TraceError):
            load_trace(text)

    @pytest.mark.parametrize(
        "value",
        [1.5, True, " 5", "5 ", "1_000", "+5", "\u0665"],
        ids=["fraction", "true", "lead-space", "trail-space", "underscore", "plus", "arabic-digit"],
    )
    def test_a_value_that_is_neither_an_integer_nor_decimal_digits(self, value):
        with pytest.raises(TraceError):
            load_trace(_doc_with(("blocks", 0, 0, "value"), value))

    def test_a_value_may_be_a_json_integer(self):
        assert load_trace(_doc_with(("blocks", 0, 0, "value"), 7))[0][0].value == 7

    def test_a_document_nested_past_the_parser(self):
        with pytest.raises(TraceError):
            load_trace("[" * 100_000 + "]" * 100_000)
        with pytest.raises(TraceError):
            load_trace(_doc_with(("blocks",), "@").replace('"@"', "[" * 100_000 + "]" * 100_000))

    @pytest.mark.parametrize("tag", [["erc20"], 5, None, {"kind": "nft"}], ids=["list", "int", "null", "object"])
    def test_a_tag_that_is_not_a_string(self, tag):
        with pytest.raises(TraceError):
            load_trace(_doc_with(("blocks", 0, 0, "tag"), tag))

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(dump_trace([[tx()]]).encode("utf-8").replace(b'"note"', b'"\xff\xfe"'))
        with pytest.raises(TraceError):
            load_trace_file(str(path))

    def test_the_valid_document_still_loads(self):
        blocks = load_trace(json.dumps(_valid_doc()))
        assert [len(block) for block in blocks] == [2, 1]
        assert blocks[0][0].tag == "erc20" and blocks[0][1].to is None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@pytest.mark.robustness
class TestEveryDocument:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), json_values)
    def test_any_value_anywhere(self, data, value):
        paths = [path for path in _paths(_valid_doc()) if path]
        path = data.draw(st.sampled_from(paths))
        _loads_or_trace_error(_doc_with(path, value))

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_any_document(self, value):
        _loads_or_trace_error(json.dumps(value))


class TestReplayEquivalence:
    def test_recorded_trace_reproduces_block(
        self, small_universe, small_generator, genesis_chain, tmp_path
    ):
        """Record a generated workload, reload it, and verify the proposer
        produces the identical block (hash-for-hash) from the replay."""
        from repro.network.node import ProposerNode
        from repro.workload.traces import load_trace_file, save_trace_file

        txs = small_generator.generate_block_txs()
        path = str(tmp_path / "blocks.json")
        save_trace_file(path, [txs])
        replayed = load_trace_file(path)[0]

        node = ProposerNode("rec")
        sealed_live = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, txs
        )
        sealed_replay = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, replayed
        )
        assert sealed_live.block.hash == sealed_replay.block.hash
