"""The transport floor for the ``serve`` workload: a length-prefixed JSON
echo server on a unix socket, in its own process like the daemon it is
compared with.  No ``repro`` import — this is the outside baseline.

    python echo_server.py SOCKET_PATH

Serves one connection: reads a 4-byte big-endian length and that many
bytes of JSON, parses it, serialises it again and sends it back; exits
when the peer closes.
"""

import json
import socket
import struct
import sys

LEN = struct.Struct(">I")


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
    return buf


def roundtrip(sock: socket.socket, obj: dict) -> dict:
    """The client side of one echo (the benchmark imports this)."""
    body = json.dumps(obj, separators=(",", ":")).encode()
    sock.sendall(LEN.pack(len(body)) + body)
    (n,) = LEN.unpack(recv_exact(sock, 4))
    return json.loads(recv_exact(sock, n))


def main(path: str) -> int:
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    conn, _ = listener.accept()
    try:
        while True:
            (n,) = LEN.unpack(recv_exact(conn, 4))
            body = json.dumps(json.loads(recv_exact(conn, n)),
                              separators=(",", ":")).encode()
            conn.sendall(LEN.pack(len(body)) + body)
    except (ConnectionError, OSError):
        pass
    finally:
        conn.close()
        listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
