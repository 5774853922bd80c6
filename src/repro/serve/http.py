"""Minimal asyncio HTTP/1.1 primitives for ``repro serve``.

No third-party web framework is available offline, and none is needed
for this surface: the server speaks plain HTTP/1.1 over asyncio
streams -- request-line + headers + ``Content-Length`` bodies in,
fixed responses or close-delimited streams out.  Keep-alive is
honored for fixed responses (the cached-hit hot path is a tight
request/response ping-pong over one connection); streaming responses
(NDJSON / SSE progress feeds) are close-delimited, exactly like a
curl-able event tail.

The parser is deliberately strict and bounded: oversized headers and
bodies, malformed request lines, and bad JSON all surface as
:class:`HttpError` with a client-side 4xx status -- a malformed
request must produce a readable error document, never a traceback.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard cap on the request head (request line + headers).
MAX_HEADER_BYTES = 64 * 1024

#: Hard cap on request bodies (a scenario spec is a few KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """An error the client caused; rendered as a JSON error document."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    def json(self):
        """Parse the body as JSON; bad JSON is a 400, not a traceback."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """A fixed-body response (keep-alive friendly)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple = ()


@dataclass
class StreamResponse:
    """A close-delimited streaming response (NDJSON / SSE)."""

    chunks: AsyncIterator[bytes]
    content_type: str = "application/x-ndjson"
    status: int = 200
    headers: tuple = field(default=())


def json_response(doc, status: int = 200) -> Response:
    """Render ``doc`` as a JSON response body."""
    body = json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"
    return Response(status=status, body=body)


def json_data_response(doc: dict, data: bytes) -> Response:
    """``json_response({**doc, "data": ...})`` for a ``data`` member
    that is already JSON, given as ``data``, without decoding it.
    ``json.dumps(..., sort_keys=True)`` writes the members in key
    order, ``", "`` apart, so the body is the members before
    ``"data"``, then ``data``, then the members after it."""
    before = {k: v for k, v in doc.items() if k < "data"}
    after = {k: v for k, v in doc.items() if k > "data"}
    members = (json.dumps(before, sort_keys=True)[1:-1].encode(),
               b'"data": ' + data,
               json.dumps(after, sort_keys=True)[1:-1].encode())
    return Response(body=b"{" + b", ".join(m for m in members if m)
                    + b"}\n")


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated HTTP request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} "
                             "bytes") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")

    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400,
                            f"bad Content-Length {length_text!r}") from None
        if length < 0:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413,
                            f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    return Request(method=method.upper(), path=path, query=query,
                   headers=headers, body=body)


# ----------------------------------------------------------------------
# Response writing
# ----------------------------------------------------------------------
def _head(status: int, content_type: str, extra: tuple,
          *, length: int | None, close: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append("Connection: " + ("close" if close else "keep-alive"))
    for name, value in extra:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter, response: Response,
                         *, close: bool, head_only: bool = False) -> None:
    """Write the head and, unless ``head_only``, the body in one write:
    a response that fits the socket's buffer leaves in one ``send``."""
    head = _head(response.status, response.content_type,
                 tuple(response.headers), length=len(response.body),
                 close=close)
    writer.write(head if head_only else head + response.body)
    await writer.drain()


async def write_stream(writer: asyncio.StreamWriter,
                       response: StreamResponse) -> None:
    """Write a close-delimited streaming body, chunk by chunk."""
    writer.write(_head(response.status, response.content_type,
                       tuple(response.headers), length=None, close=True))
    await writer.drain()
    async for chunk in response.chunks:
        writer.write(chunk)
        await writer.drain()


# ----------------------------------------------------------------------
# Connection loop
# ----------------------------------------------------------------------
Handler = Callable[[Request], Awaitable[Response | StreamResponse]]


async def handle_connection(handler: Handler,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one client connection: parse, dispatch, respond, repeat.

    Handler exceptions become JSON error documents -- an
    :class:`HttpError` with its own status, anything else a 500 with
    the exception repr (the traceback stays in the server process).
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await write_response(
                    writer, json_response({"error": exc.message},
                                          exc.status), close=True)
                break
            if request is None:
                break
            head_only = request.method == "HEAD"
            try:
                response = await handler(request)
            except HttpError as exc:
                response = json_response({"error": exc.message}, exc.status)
            except Exception as exc:  # noqa: BLE001 - must answer the client
                response = json_response(
                    {"error": f"internal error: {exc!r}"}, 500)
            if isinstance(response, StreamResponse):
                await write_stream(writer, response)
                break
            close = (request.headers.get("connection", "").lower()
                     == "close")
            await write_response(writer, response, close=close,
                                 head_only=head_only)
            if close:
                break
    except (ConnectionError, asyncio.CancelledError, OSError):
        pass  # client went away / server shutting down
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError,
                RuntimeError):
            pass  # cancelled mid-close / loop already gone
