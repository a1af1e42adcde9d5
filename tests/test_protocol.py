"""Wire-level constants, matching semantics, and directive parsing."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psvc.protocol import (
    BROKER_RESULT,
    BrokerResult,
    ERROR_CODES,
    H_CALLBACK,
    H_ERROR,
    H_INVOCATION,
    H_METHOD,
    H_PARAMETERS,
    H_SERVICE,
    H_VERSION,
    MAX_QUERY_DEPTH,
    MalformedDirective,
    OP_WHITE,
    OP_YELLOW,
    PROTOCOL_VERSION,
    SERVICE_CALL,
    WHITE_PAGES,
    YELLOW_PAGES,
    decode_broker_result,
    decode_handle_payload,
    decode_white_query,
    decode_yellow_query,
    encode_broker_result,
    parse_directive,
)
from psvc.registry import YellowQuery, json_equal, white_match, yellow_match

from conftest import random_json_value, random_presentation

# JSON as json.loads returns it; NaN is left out because it never equals itself.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
JSON_OBJECTS = st.dictionaries(st.text(), JSON_VALUES, max_size=4)
BROKER_RESULTS = st.builds(
    BrokerResult, st.just(OP_YELLOW), JSON_OBJECTS, st.lists(JSON_OBJECTS, max_size=4)
) | st.builds(
    BrokerResult,
    st.just(OP_WHITE),
    JSON_OBJECTS,
    st.none()
    | st.builds(
        lambda extra, service, handle: {**extra, "service": service, "handle": handle},
        JSON_OBJECTS,
        JSON_OBJECTS,
        st.text(),
    ),
)

# The four headers parse_directive consumes; every other header is carried.
DIRECTIVE_NAMES = (H_SERVICE, H_METHOD, H_PARAMETERS, H_CALLBACK)
DIRECTIVE_LOWER = {name.lower() for name in DIRECTIVE_NAMES}


def any_case(name: str):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in name)).map("".join)


class TestConstants:
    def test_status_codes(self):
        assert YELLOW_PAGES == 310
        assert WHITE_PAGES == 311
        assert SERVICE_CALL == 312
        assert BROKER_RESULT == 313

    def test_header_names(self):
        assert H_SERVICE == "PSvc-Service"
        assert H_METHOD == "PSvc-Method"
        assert H_PARAMETERS == "PSvc-Parameters"
        assert H_CALLBACK == "PSvc-Callback"
        assert H_VERSION == "PSvc-Version"
        assert H_ERROR == "PSvc-Error"
        assert H_INVOCATION == "PSvc-Invocation"
        assert PROTOCOL_VERSION == "1"

    def test_error_codes_exactly_four(self):
        assert ERROR_CODES == {"parameters", "ambiguous", "handle", "service"}

    def test_operation_labels(self):
        assert OP_YELLOW == "Yellow Pages"
        assert OP_WHITE == "White Pages"


class TestJsonEqual:
    def test_bool_never_equals_number(self):
        assert not json_equal(True, 1)
        assert not json_equal(1, True)
        assert not json_equal(False, 0)
        assert json_equal(True, True)

    def test_int_equals_float(self):
        assert json_equal(1, 1.0)
        assert json_equal(0.5, 0.5)
        assert not json_equal(1, 2)

    def test_strings_case_sensitive(self):
        assert json_equal("eID", "eID")
        assert not json_equal("eID", "eid")

    def test_nested(self):
        a = {"x": [1, {"y": True}], "z": None}
        assert json_equal(a, {"x": [1, {"y": True}], "z": None})
        assert not json_equal(a, {"x": [1, {"y": 1}], "z": None})
        assert not json_equal({"a": 1}, {"a": 1, "b": 2})
        assert not json_equal([1, 2], [1, 2, 3])

    def test_random_values_equal_their_json_round_trip(self):
        rng = random.Random(2024)
        for _ in range(300):
            value = random_json_value(rng, depth=3)
            again = json.loads(json.dumps(value))
            assert json_equal(value, again)

    def test_random_distinct_scalars_differ(self):
        rng = random.Random(77)
        for _ in range(300):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50)
            assert json_equal(a, b) == (a == b)


class TestYellowMatch:
    def test_attribute_name_case_insensitive(self):
        name = {"Purpose": "authentication"}
        assert yellow_match(YellowQuery("purpose", "authentication"), name)
        assert yellow_match(YellowQuery("PURPOSE", "authentication"), name)

    def test_string_value_case_insensitive(self):
        name = {"Device": "Portuguese eID"}
        assert yellow_match(YellowQuery("device", "portuguese eid"), name)

    def test_non_string_values_structural(self):
        assert yellow_match(YellowQuery("n", 5), {"N": 5})
        assert yellow_match(YellowQuery("n", 5), {"N": 5.0})
        assert not yellow_match(YellowQuery("flag", True), {"Flag": 1})
        assert yellow_match(YellowQuery("tags", ["a", "b"]), {"Tags": ["a", "b"]})

    def test_absent_attribute(self):
        assert not yellow_match(YellowQuery("Device", "x"), {"Purpose": "x"})

    def test_planted_matches_found(self):
        rng = random.Random(4242)
        for _ in range(400):
            name = random_presentation(rng)
            attr = rng.choice(list(name))
            value = name[attr]
            twisted = "".join(
                c.upper() if rng.random() < 0.5 else c.lower() for c in attr
            )
            query_value = value
            if isinstance(value, str):
                query_value = "".join(
                    c.upper() if rng.random() < 0.5 else c.lower() for c in value
                )
            assert yellow_match(YellowQuery(twisted, query_value), name)

    def test_constructed_misses_stay_misses(self):
        rng = random.Random(555)
        for _ in range(400):
            name = random_presentation(rng)
            absent = "zz_" + "".join(rng.choice("abc") for _ in range(5))
            assert absent.casefold() not in {k.casefold() for k in name}
            assert not yellow_match(YellowQuery(absent, "anything"), name)


class TestWhiteMatch:
    def test_subset_semantics(self):
        name = {"Purpose": "authentication", "Device": "Portuguese eID", "N": 3}
        assert white_match({"Purpose": "authentication"}, name)
        assert white_match({"Purpose": "authentication", "N": 3}, name)
        assert not white_match({"Purpose": "authentication", "Extra": 1}, name)

    def test_case_sensitive(self):
        name = {"Purpose": "authentication"}
        assert not white_match({"purpose": "authentication"}, name)
        assert not white_match({"Purpose": "Authentication"}, name)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            white_match({}, {"a": 1})

    def test_sampled_subsets_match(self):
        rng = random.Random(90125)
        for _ in range(400):
            name = random_presentation(rng)
            attrs = rng.sample(list(name), rng.randint(1, len(name)))
            query = {a: name[a] for a in attrs}
            assert white_match(query, name)
            # Break one value: bools flip, everything else gets replaced
            # by a marker object no generator ever produces.
            broken = dict(query)
            victim = rng.choice(attrs)
            broken[victim] = (
                not broken[victim]
                if isinstance(broken[victim], bool)
                else {"__never__": 1}
            )
            assert not white_match(broken, name)


class TestQueryCodecs:
    def test_yellow_round_trip(self):
        query = YellowQuery("Purpose", "authentication")
        assert decode_yellow_query(json.dumps(query.as_object())) == query

    def test_yellow_must_hold_exactly_one_attribute(self):
        with pytest.raises(MalformedDirective):
            decode_yellow_query("{}")
        with pytest.raises(MalformedDirective):
            decode_yellow_query('{"a": 1, "b": 2}')

    def test_yellow_rejects_non_objects_and_bad_json(self):
        for text in ("[]", '"x"', "12", "not json", ""):
            with pytest.raises(MalformedDirective):
                decode_yellow_query(text)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(MalformedDirective):
            decode_yellow_query('{"a": 1, "a": 2}')
        with pytest.raises(MalformedDirective):
            decode_white_query('{"a": 1, "a": 2}')

    def test_white_rejects_empty(self):
        with pytest.raises(MalformedDirective):
            decode_white_query("{}")

    def test_white_round_trip(self):
        query = {"Purpose": "authentication", "Device": "Portuguese eID"}
        assert decode_white_query(json.dumps(query)) == query

    @pytest.mark.parametrize("decode", [decode_yellow_query, decode_white_query])
    def test_nesting_is_bounded(self, decode):
        def nested(depth: int) -> str:  # the query object is the first level
            return '{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"

        assert decode(nested(MAX_QUERY_DEPTH))
        for depth in (MAX_QUERY_DEPTH + 1, 985, 5000):
            with pytest.raises(MalformedDirective):
                decode(nested(depth))

    def test_json_the_parser_gives_up_on_is_malformed(self):
        too_long = '{"handle": ' + "7" * 5000 + "}"  # over int's 4,300-digit limit
        too_deep = '{"handle": ' + "[" * 5000 + "]" * 5000 + "}"
        for text in (too_long, too_deep):
            with pytest.raises(MalformedDirective):
                decode_yellow_query(text)
            with pytest.raises(MalformedDirective):
                decode_handle_payload(text)

    def test_handle_payload_both_forms(self):
        assert decode_handle_payload('"abc"') == "abc"
        assert decode_handle_payload('{"handle": "abc"}') == "abc"

    def test_handle_payload_rejects_unusable(self):
        for text in ("", "noise", "{}", '{"handle": 5}', '""', "null"):
            with pytest.raises(MalformedDirective):
                decode_handle_payload(text)


class TestBrokerResultEnvelope:
    def test_yellow_round_trip_is_single_ascii_line(self):
        result = BrokerResult(
            OP_YELLOW,
            {"Purpose": "authentication"},
            [{"Device name": "Cartão de Cidadão"}],
        )
        text = encode_broker_result(result)
        assert "\n" not in text and text.isascii()
        again = decode_broker_result(text)
        assert again == result

    def test_white_round_trip(self):
        result = BrokerResult(
            OP_WHITE,
            {"Purpose": "authentication", "Device": "Portuguese eID"},
            {"service": {"Purpose": "authentication"}, "handle": "xyz"},
        )
        assert decode_broker_result(encode_broker_result(result)) == result

    def test_white_none_response_round_trip(self):
        result = BrokerResult(OP_WHITE, {"Purpose": "x"}, None)
        assert decode_broker_result(encode_broker_result(result)) == result

    @settings(max_examples=300, deadline=None)
    @given(BROKER_RESULTS)
    def test_every_result_round_trips_on_one_ascii_line(self, result):
        text = encode_broker_result(result)
        assert text.isascii() and "\n" not in text and "\r" not in text
        again = decode_broker_result(text)
        assert again == result
        # == takes True for 1; the JSON types must survive as well.
        assert json_equal(again.request, result.request)
        assert json_equal(again.response, result.response)

    def test_rejects_unknown_operation(self):
        with pytest.raises(MalformedDirective):
            decode_broker_result('{"operation": "Green Pages", "request": {}, "response": []}')

    def test_rejects_bad_shapes(self):
        bad = [
            '{"operation": "Yellow Pages", "request": [], "response": []}',
            '{"operation": "Yellow Pages", "request": {}, "response": {"a": 1}}',
            '{"operation": "Yellow Pages", "request": {}, "response": ["name"]}',
            '{"operation": "White Pages", "request": {}, "response": {"service": {}}}',
            '{"operation": "White Pages", "request": {}, "response": 5}',
        ]
        for text in bad:
            with pytest.raises(MalformedDirective):
                decode_broker_result(text)


class TestParseDirective:
    def test_yellow_requires_callback(self):
        with pytest.raises(MalformedDirective):
            parse_directive(310, [(H_SERVICE, '{"a": 1}')], b"")

    def test_white_requires_callback(self):
        with pytest.raises(MalformedDirective):
            parse_directive(311, [(H_SERVICE, '{"a": 1}')], b"")

    def test_service_header_mandatory(self):
        with pytest.raises(MalformedDirective):
            parse_directive(312, [(H_CALLBACK, "http://sp/cb")], b"")

    def test_full_invoke_directive(self):
        headers = [
            ("Content-Type", "application/octet-stream"),
            (H_SERVICE, '{"handle": "h123"}'),
            (H_METHOD, "POST"),
            (H_PARAMETERS, "/auth?x=1"),
            (H_CALLBACK, "http://sp:8080/err"),
            ("X-Extra", "kept"),
        ]
        d = parse_directive(312, headers, b"payload")
        assert d.kind == 312
        assert d.handle == "h123"
        assert d.method == "POST"
        assert d.parameters == "/auth?x=1"
        assert d.callback == "http://sp:8080/err"
        assert d.carried_headers == (
            ("Content-Type", "application/octet-stream"),
            ("X-Extra", "kept"),
        )
        assert d.carried_body == b"payload"

    def test_directive_headers_not_carried_case_insensitively(self):
        headers = [
            ("psvc-service", '"h"'),
            ("PSVC-METHOD", "GET"),
            ("psvc-callback", "http://sp/cb"),
            ("X-Keep", "1"),
        ]
        d = parse_directive(312, headers, b"")
        assert d.handle == "h"
        assert d.carried_headers == (("X-Keep", "1"),)

    def test_parameters_grow_leading_slash(self):
        headers = [(H_SERVICE, '"h"'), (H_PARAMETERS, "auth")]
        assert parse_directive(312, headers, b"").parameters == "/auth"

    def test_method_defaults_to_get(self):
        assert parse_directive(312, [(H_SERVICE, '"h"')], b"").method == "GET"

    def test_garbage_method_rejected(self):
        headers = [(H_SERVICE, '"h"'), (H_METHOD, "GE T/")]
        with pytest.raises(MalformedDirective):
            parse_directive(312, headers, b"")

    @pytest.mark.parametrize("method", ["G\u00c9T", "G\u00b2T", "GET\u0661", ""])
    def test_a_method_outside_the_token_class_is_rejected(self, method):
        # str.isalnum accepts each of the first three; the request line does not.
        headers = [(H_SERVICE, '"h"'), (H_METHOD, method)]
        with pytest.raises(MalformedDirective, match="unusable method"):
            parse_directive(312, headers, b"")

    @pytest.mark.parametrize("method", ["M!X", "PROPFIND", "x~y.z"])
    def test_any_token_method_is_kept(self, method):
        headers = [(H_SERVICE, '"h"'), (H_METHOD, method)]
        assert parse_directive(312, headers, b"").method == method

    def test_non_directive_status_is_a_programming_error(self):
        with pytest.raises(ValueError):
            parse_directive(200, [], b"")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([YELLOW_PAGES, WHITE_PAGES, SERVICE_CALL]), st.binary(), st.data())
    def test_only_the_directive_headers_are_consumed(self, status, body, data):
        # Each directive value is usable, so the directive parses whichever
        # copy of a name comes first; its headers may be in any case.
        service = '{"handle": "h"}' if status == SERVICE_CALL else '{"Purpose": "x"}'
        required = {H_SERVICE: service, H_CALLBACK: "http://sp/cb"}
        values = {
            H_METHOD: st.sampled_from(["GET", "POST", "put"]),
            H_PARAMETERS: st.text(),
            **{name: st.just(value) for name, value in required.items()},
        }
        directive = st.sampled_from(DIRECTIVE_NAMES).flatmap(
            lambda name: st.tuples(any_case(name), values[name])
        )
        other = st.tuples(
            st.text(min_size=1).filter(lambda name: name.lower() not in DIRECTIVE_LOWER),
            st.text(),
        )
        headers = data.draw(st.lists(directive | other, max_size=12))
        for name, value in required.items():
            at = data.draw(st.integers(0, len(headers)))
            headers.insert(at, (data.draw(any_case(name)), value))
        wanted = tuple((k, v) for k, v in headers if k.lower() not in DIRECTIVE_LOWER)
        d = parse_directive(status, list(headers), body)
        assert d.carried_headers == wanted
        assert d.carried_body == body

    def test_yellow_and_white_queries_decoded(self):
        y = parse_directive(
            310, [(H_SERVICE, '{"Purpose": "x"}'), (H_CALLBACK, "http://sp/cb")], b""
        )
        assert y.yellow == YellowQuery("Purpose", "x")
        w = parse_directive(
            311, [(H_SERVICE, '{"a": 1, "b": 2}'), (H_CALLBACK, "http://sp/cb")], b""
        )
        assert w.white == {"a": 1, "b": 2}
