// Package jsonz provides allocation-free append-style JSON encoding
// primitives whose output is byte-identical to encoding/json for the value
// shapes the store's hot paths emit: strings (with encoding/json's default
// HTML-safe escaping), integers, and base64 byte blobs. The WAL record and
// snapshot encoders build their frames from these so that steady-state
// encoding costs zero heap allocations while remaining bit-compatible with
// streams written by encoding/json — replay of old logs and decode of new
// ones are the same code path.
package jsonz

import (
	"encoding/base64"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends the JSON encoding of s, a string or its bytes,
// replicating encoding/json's default escaping: control characters, '"',
// '\\', the HTML-sensitive '<', '>', '&', and the JS line separators
// U+2028/U+2029 are escaped; invalid UTF-8 is replaced with U+FFFD.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeASCII(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				// Includes '<', '>', '&' and control characters, exactly as
				// encoding/json renders them.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// safeASCII reports whether b needs no escaping under encoding/json's
// default (HTML-escaping) encoder.
func safeASCII(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendInt appends the decimal encoding of v.
func AppendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// AppendUint appends the decimal encoding of v.
func AppendUint(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }

// AppendBase64 appends the standard-encoding base64 of data as a JSON
// string, matching encoding/json's []byte rendering.
func AppendBase64(dst []byte, data []byte) []byte {
	dst = append(dst, '"')
	n := base64.StdEncoding.EncodedLen(len(data))
	off := len(dst)
	for cap(dst) < off+n {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:off+n]
	base64.StdEncoding.Encode(dst[off:], data)
	return append(dst, '"')
}
