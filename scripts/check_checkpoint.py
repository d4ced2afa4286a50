#!/usr/bin/env python3
"""Checks the shape of a v4 sweep checkpoint (DESIGN.md section 10).

The file must be nothing but frames: each one the magic OCF1, a u32
little-endian payload length, the payload and a u32 zlib.crc32 of the
payload. The first payload is the header: u32 version (4), the program
and machine as u32-length-prefixed strings, the u32 config digest and a
u32 record count that must equal the number of frames after it.

Usage: check_checkpoint.py FILE   (exit 0 when valid, 1 with a reason)
"""
import struct
import sys
import zlib


def problem(data):
    """The first way `data` deviates from a v4 checkpoint, or None."""
    payloads = []
    at = 0
    while at < len(data):
        if data[at:at + 4] != b"OCF1":
            return f"no frame magic at byte {at}"
        if at + 8 > len(data):
            return f"truncated frame header at byte {at}"
        (length,) = struct.unpack_from("<I", data, at + 4)
        end = at + 8 + length + 4
        if end > len(data):
            return f"frame at byte {at} runs past the end of the file"
        payload = data[at + 8:at + 8 + length]
        (crc,) = struct.unpack_from("<I", data, at + 8 + length)
        if zlib.crc32(payload) != crc:
            return f"crc mismatch in the frame at byte {at}"
        payloads.append(payload)
        at = end
    if not payloads:
        return "no header frame"
    header = payloads[0]
    try:
        (version,) = struct.unpack_from("<I", header, 0)
        pos = 4
        for _ in ("program", "machine"):
            (size,) = struct.unpack_from("<I", header, pos)
            pos += 4 + size
        _config, count = struct.unpack_from("<II", header, pos)
    except struct.error:
        return "header frame too short"
    if version != 4:
        return f"format version {version}, expected 4"
    if pos + 8 != len(header):
        return "trailing bytes in the header frame"
    if count != len(payloads) - 1:
        return f"header counts {count} records, file holds {len(payloads) - 1}"
    return None


def main():
    with open(sys.argv[1], "rb") as f:
        why = problem(f.read())
    if why:
        print(f"not a v4 checkpoint: {why}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
