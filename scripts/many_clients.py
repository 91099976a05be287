#!/usr/bin/env python3
"""Hold N query sessions open against a live rspan TCP endpoint.

Usage:
  many_clients.py HOST:PORT N

Opens N connections, sends each the 'Q' query hello, and only once all
N are open asks `stats` on every one of them, so the server has all N
sessions live at the same time. Every session must answer with a
`stats: ...` line. Exits 0 when all N did, 1 otherwise, printing one
line per failed session.

Frames are the rspan wire unit: u32 payload length and u32 CRC-32 of
the payload (both little-endian; zlib's CRC-32), then the payload.
"""
import socket
import struct
import sys
import zlib

TIMEOUT_S = 10.0


def send_frame(sock, payload):
    sock.sendall(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed by peer")
        buf += chunk
    return buf


def recv_frame(sock):
    length, crc = struct.unpack("<II", recv_exact(sock, 8))
    payload = recv_exact(sock, length)
    if zlib.crc32(payload) != crc:
        raise ValueError("payload checksum mismatch")
    return payload


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    host, _, port = argv[1].rpartition(":")
    host = host or "127.0.0.1"
    n = int(argv[2])
    socks, failures = [], []
    for i in range(n):
        try:
            s = socket.create_connection((host, int(port)), timeout=TIMEOUT_S)
            send_frame(s, b"Q")
            socks.append((i, s))
        except OSError as e:
            failures.append(f"session {i}: connect: {e}")
    for i, s in socks:
        try:
            send_frame(s, b"Lstats")
            reply = recv_frame(s)
            if not reply.startswith(b"Lstats: "):
                failures.append(f"session {i}: unexpected reply {reply!r}")
        except (OSError, ValueError) as e:
            failures.append(f"session {i}: {e}")
    for _, s in socks:
        s.close()
    for f in failures:
        print(f)
    print(f"{n - len(failures)} of {n} concurrent sessions answered stats")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
