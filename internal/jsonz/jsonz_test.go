package jsonz

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

// TestAppendStringMatchesEncodingJSON pins byte-for-byte equality with
// encoding/json across adversarial and random strings — the codec's whole
// claim to compatibility rests on this.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	fixed := []string{
		"",
		"plain",
		`quotes " and \ backslash`,
		"tabs\tnewlines\nreturns\r",
		"control\x00\x01\x1f",
		"html <b>&amp;</b>",
		"unicode: héllo wörld 日本語",
		"line separators   and  ",
		"invalid utf8: \xff\xfe",
		"mixed \xc3\x28 truncated",
		strings.Repeat("long ascii ", 100),
	}
	for _, s := range fixed {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s; want %s", s, got, want)
		}
		if got := AppendString(nil, []byte(s)); string(got) != string(want) {
			t.Fatalf("AppendString([]byte(%q)) = %s; want %s", s, got, want)
		}
	}
	f := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			return true
		}
		return string(AppendString(nil, s)) == string(want) && string(AppendString(nil, []byte(s))) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBase64MatchesEncodingJSON pins []byte rendering.
func TestAppendBase64MatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	f := func(b []byte) bool {
		want, _ := json.Marshal(b)
		if b == nil {
			// encoding/json renders nil []byte as null; callers handle nil
			// before reaching AppendBase64.
			return true
		}
		return string(AppendBase64(nil, b)) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if got := string(AppendBase64(nil, []byte{})); got != `""` {
		t.Fatalf("empty slice = %s; want \"\"", got)
	}
}

// TestAppendIntUint spot-checks the integer helpers.
func TestAppendIntUint(t *testing.T) {
	t.Parallel()
	if got := string(AppendInt(nil, -42)); got != "-42" {
		t.Fatalf("AppendInt = %s", got)
	}
	if got := string(AppendUint(nil, 18446744073709551615)); got != "18446744073709551615" {
		t.Fatalf("AppendUint = %s", got)
	}
}
