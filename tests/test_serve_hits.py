"""The cached-hit path of ``repro serve``: bodies, memo and HEAD.

A hit reads the entry's bytes and looks their canonical JSON and its
checksum up in a memo keyed by those bytes, then splices both into the
response.  These tests pin that the spliced bodies equal, byte for
byte, what the app built before the memo (kept below as the reference),
with the memo cold and warm; that the memo never outlives the entry
it was made from; that every memo hit still counts as a cache hit; and
that a HEAD response, whose head now leaves in the same write a body
would, carries no body.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import json
import pickle
import socket
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exp.cache import (
    ResultCache,
    canonical_checksum,
    canonical_digest,
    canonicalize,
)
from repro.exp.registry import _REGISTRY, ExperimentSpec, register
from repro.exp.runner import resolve_run
from repro.obs.metrics import REGISTRY
from repro.serve import app as serve_app
from repro.serve.http import HttpError, Request, json_response
from repro.serve.server import ServerThread

# ----------------------------------------------------------------------
# ``_hit_doc`` and ``_result`` as they were before the memo, verbatim
# but for their names and ``self``
# ----------------------------------------------------------------------
def reference_hit_doc(kind: str, name: str, key: str, params: dict,
                      value):
    data = canonicalize(value)
    return json_response({
        "kind": kind, "name": name, "key": key,
        "params": canonicalize(params), "cached": True,
        "checksum": canonical_digest(data), "data": data,
    })


def reference_result(key: str, value):
    data = canonicalize(value)
    return json_response({"key": key,
                          "checksum": canonical_digest(data),
                          "data": data})


# ----------------------------------------------------------------------
# A synthetic experiment whose cache entries the tests write directly
# ----------------------------------------------------------------------
def _echo(n: int = 0):
    return {"n": n}


_SPEC = ExperimentSpec(name="srv-hits", fn=_echo, figure="-",
                       claim="serve hit-path test")


@pytest.fixture(scope="module", autouse=True)
def _synthetic_experiment():
    register(_SPEC)
    yield
    _REGISTRY.pop(_SPEC.name, None)


class _InProcess:
    """A :class:`ReproApp` called directly, on one event loop."""

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.app = serve_app.ReproApp(cache=cache)
        self.loop = asyncio.new_event_loop()

    def call(self, method: str, path: str, body: bytes = b""):
        """The response, an :class:`HttpError` rendered as the
        connection loop renders it."""
        request = Request(method=method, path=path, query={}, headers={},
                          body=body)
        try:
            return self.loop.run_until_complete(self.app.handle(request))
        except HttpError as exc:
            return json_response({"error": exc.message}, exc.status)

    def post(self, n: int):
        return self.call("POST", f"/v1/experiments/{_SPEC.name}",
                         json.dumps({"params": {"n": n}}).encode())

    def close(self) -> None:
        self.app.jobs.shutdown(drain_s=10.0)
        self.loop.close()


@pytest.fixture()
def served(tmp_path):
    served = _InProcess(ResultCache(tmp_path / "cache"))
    yield served
    served.close()


def _key(n: int) -> tuple[dict, str]:
    _spec, key_params, _call, key = resolve_run(_SPEC.name, {"n": n})
    return key_params, key


# ----------------------------------------------------------------------
# Values that stress the canonical JSON encoding
# ----------------------------------------------------------------------
class Shade(enum.Enum):
    DARK = "dark"
    PAIR = ("p", 2)


class Rank(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclass
class Leaf:
    # Declared out of name order: the canonical form sorts them.
    z: object
    a: object = None


@dataclass
class Branch:
    leaf: Leaf
    items: object = ()


_AWKWARD_TEXT = st.text(alphabet=st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "a", " ",
     "\u00e9", "\u00a0", "\u2028", "\ud800", "\U0001f600"]), max_size=6)

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-320, float("nan"), float("inf"),
                     float("-inf")]),
    st.integers(), st.integers(-10 ** 60, 10 ** 60),
    _AWKWARD_TEXT, st.text(max_size=4),
    st.sampled_from(Shade), st.sampled_from(Rank),
)

_KEYS = st.one_of(st.integers(-3, 3), st.sampled_from(Shade),
                  st.sampled_from(Rank), _AWKWARD_TEXT)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
        st.builds(Leaf, children, children),
        st.builds(Branch, st.builds(Leaf, children), children),
    )


_VALUES = st.recursive(_LEAVES, _extend, max_leaves=20)


class TestBodiesMatchReference:
    """The POST-hit and ``/v1/results`` bodies equal the reference
    bodies byte for byte for any stored value, memo cold and warm."""

    @pytest.fixture(scope="class")
    def app(self, tmp_path_factory):
        served = _InProcess(ResultCache(tmp_path_factory.mktemp("hits")))
        yield served
        served.close()

    @settings(max_examples=200, deadline=None)
    @given(value=_VALUES)
    @example(value="quote \" backslash \\ nul \x00 \u00e9 \U0001f600")
    @example(value=[-0.0, 1e16, float("nan"), float("inf"), 2 ** 100])
    @example(value={1: Shade.PAIR, Rank.HIGH: (1, "x"), "1": None})
    @example(value=Branch(Leaf({Shade.DARK: -0.0}, (2 ** 70,)),
                          [Leaf("\\", Rank.LOW)]))
    def test_hit_and_result_bodies(self, app, value):
        key_params, key = _key(7)
        app.cache.put(key, value)
        hit = reference_hit_doc("experiment", _SPEC.name, key, key_params,
                                value).body
        result = reference_result(key, value).body
        serve_app._canonical_entry.cache_clear()
        for memo in ("cold", "warm"):
            response = app.post(7)
            assert response.status == 200, (memo, response.body[:200])
            assert response.body == hit, memo
            response = app.call("GET", f"/v1/results/{key}")
            assert response.status == 200, (memo, response.body[:200])
            assert response.body == result, memo


# ----------------------------------------------------------------------
# The memo never outlives its entry
# ----------------------------------------------------------------------
_UNIQUE = itertools.count()


def _fresh_value() -> dict:
    """A value no earlier test stored, so its entry starts cold in the
    process-wide memo."""
    return {"marker": f"{__name__}-{next(_UNIQUE)}",
            "rows": [[1, 2.5, "x"], Leaf(1, (2, 3))]}


class TestMemoSafety:
    def test_rewritten_entry_serves_its_new_checksum(self, served):
        _params, key = _key(1)
        old, new = _fresh_value(), _fresh_value()
        served.cache.put(key, old)
        for _ in range(2):  # the second hit is served from the memo
            doc = json.loads(served.post(1).body)
            assert doc["checksum"] == canonical_checksum(old)
        served.cache.put(key, new)
        response = served.post(1)
        assert response.status == 200
        doc = json.loads(response.body)
        assert doc["checksum"] == canonical_checksum(new)
        assert doc["data"] == canonicalize(new)
        doc = json.loads(served.call("GET", f"/v1/results/{key}").body)
        assert doc["checksum"] == canonical_checksum(new)

    def test_corrupted_entry_is_a_miss_and_is_deleted(self, served,
                                                      monkeypatch):
        # The miss's job stays queued: run, it would look the entry up
        # and write it again.
        monkeypatch.setattr(served.app.jobs, "_ensure_thread",
                            lambda: None)
        _params, key = _key(2)
        path = served.cache.put(key, _fresh_value())
        for _ in range(2):
            assert served.post(2).status == 200
        path.write_bytes(b"not a pickle")
        misses = served.cache.miss_count
        response = served.post(2)
        assert response.status == 202, response.body[:200]
        assert json.loads(response.body)["cached"] is False
        assert not path.exists()
        assert served.cache.miss_count == misses + 1
        assert served.call("GET", f"/v1/results/{key}").status == 404

    def test_every_memo_hit_counts_as_a_cache_hit(self, served):
        """``hit_count`` and ``repro_cache_hits_total`` are what the
        bench's ``exp.cache_hit_ratio`` reads."""
        _params, key = _key(3)
        served.cache.put(key, _fresh_value())
        requests = [lambda: served.post(3),
                    lambda: served.call("GET", f"/v1/results/{key}")] * 3
        for request in requests:
            hits = served.cache.hit_count
            total = REGISTRY.get_value("repro_cache_hits_total")
            assert request().status == 200
            assert served.cache.hit_count == hits + 1
            assert (REGISTRY.get_value("repro_cache_hits_total")
                    == total + 1)

    def test_identical_hits_decode_the_entry_once(self, served,
                                                  monkeypatch):
        _params, key = _key(4)
        entry = served.cache.put(key, _fresh_value()).read_bytes()
        loads = pickle.loads
        calls = []

        def spy(data, *args, **kwargs):
            if data == entry:
                calls.append(1)
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", spy)
        bodies = {served.post(4).body for _ in range(5)}
        bodies |= {served.call("GET", f"/v1/results/{key}").body
                   for _ in range(5)}
        assert len(calls) == 1
        assert len(bodies) == 2  # one hit body, one result body


# ----------------------------------------------------------------------
# HEAD over one keep-alive connection
# ----------------------------------------------------------------------
class _Wire:
    """One raw keep-alive connection that reads responses by hand, so
    stray body bytes after a HEAD show up in the next response."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.buffer = b""

    def send(self, method: str, path: str) -> None:
        self.sock.sendall(f"{method} {path} HTTP/1.1\r\n"
                          f"Host: test\r\n\r\n".encode("latin-1"))

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise AssertionError("server closed the connection")
        self.buffer += chunk

    def head(self) -> tuple[int, dict]:
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith("HTTP/1.1 "), lines[0]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(lines[0].split(" ")[1]), headers

    def body(self, length: int) -> bytes:
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return body

    def close(self) -> None:
        self.sock.close()


class TestHead:
    def test_head_has_the_get_head_and_no_body(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _params, key = _key(5)
        cache.put(key, _fresh_value())
        paths = ("/healthz", f"/v1/results/{key}")
        with ServerThread(cache=cache) as srv:
            wire = _Wire(srv.address)
            try:
                gets = {}
                for path in paths:
                    wire.send("GET", path)
                    status, headers = wire.head()
                    body = wire.body(int(headers["content-length"]))
                    json.loads(body)
                    gets[path] = (status, headers)
                for path in paths:
                    wire.send("HEAD", path)
                    status, headers = wire.head()
                    want_status, want = gets[path]
                    assert status == want_status == 200
                    for name in ("content-type", "content-length"):
                        assert headers[name] == want[name], (path, name)
                    assert wire.buffer == b"", path
                # A GET after the HEADs still parses: no body bytes of
                # the HEADs are left on the connection.
                wire.send("GET", paths[1])
                status, headers = wire.head()
                doc = json.loads(wire.body(int(headers["content-length"])))
                assert status == 200 and doc["key"] == key
                assert wire.buffer == b""
            finally:
                wire.close()
