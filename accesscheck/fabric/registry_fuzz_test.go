package fabric

import (
	"net/url"
	"strings"
	"testing"
)

// TestRegistryJoinCanonicalURLs: a member is an http(s) scheme and a
// host[:port], lower-cased; a canonical URL joins byte-identical, and
// anything a dispatch could not use as a base URL is refused.
func TestRegistryJoinCanonicalURLs(t *testing.T) {
	for raw, want := range map[string]string{
		"http://127.0.0.1:8080": "http://127.0.0.1:8080",
		"https://example.com":   "https://example.com",
		" http://h:1/ ":         "http://h:1",
		"http://h:1//":          "http://h:1",
		"HTTP://H:1":            "http://h:1",
		"http://[::1]:8080":     "http://[::1]:8080",
		"http://[FE80::1]":      "http://[fe80::1]",
	} {
		reg, _ := testRegistry(t, RegistryConfig{})
		st, _, err := reg.Join(raw, 0)
		if err != nil || st.URL != want {
			t.Errorf("Join(%q) = %q, %v; want %q", raw, st.URL, err, want)
		}
	}
	for _, raw := range []string{
		"", "h:1", "//h:1", "http://", "http:h:1", "ftp://h:1",
		"http://u:p@h:1", "http://u@h:1",
		"http://h:1/typo", "http://h:1/v1/", "http://h:1?q=1", "http://h:1?", "http://h:1#frag", "http://h:1#",
		"http://h:", "http://h:080", "http://h:70000", "http://h:1:2", "http://::1",
		"http://bücher.example:1", "http://h%41:1",
	} {
		reg, _ := testRegistry(t, RegistryConfig{})
		if st, _, err := reg.Join(raw, 0); err == nil {
			t.Errorf("Join(%q) accepted as %q", raw, st.URL)
		}
		if n := len(reg.Workers()); n != 0 {
			t.Errorf("Join(%q) refused but left %d members", raw, n)
		}
	}
	reg, _ := testRegistry(t, RegistryConfig{})
	for _, raw := range []string{"http://h:1", "HTTP://H:1", "http://H:1/"} {
		if _, _, err := reg.Join(raw, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ws := reg.Workers(); len(ws) != 1 || ws[0] != "http://h:1" {
		t.Errorf("case variants of one URL joined as %v, want one member", ws)
	}
	if _, err := NewRegistry([]string{"http://h:1/typo"}, nil); err == nil {
		t.Error("a permanent member with a path was accepted")
	}
}

// FuzzRegistryJoin: whatever a worker announces on POST /v1/join, Join must
// not panic; a URL it accepts is a scheme and a host only and normalizes
// back to itself, and joining it again, as announced, as accepted or in
// upper case, renews the one member instead of adding another. Seeds live
// in testdata/fuzz/FuzzRegistryJoin.
func FuzzRegistryJoin(f *testing.F) {
	for _, seed := range []string{"http://127.0.0.1:8080", "http://127.0.0.1:8080/typo", "HTTP://H:1", "http://[::1]:1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		reg, _ := testRegistry(t, RegistryConfig{})
		st, _, err := reg.Join(raw, 0)
		if err != nil {
			if n := len(reg.Workers()); n != 0 {
				t.Fatalf("Join(%q) refused but left %d members", raw, n)
			}
			return
		}
		canon := st.URL
		if again, err := normalizeWorkerURL(canon); err != nil || again != canon {
			t.Fatalf("accepted %q as %q, which normalizes to %q, %v", raw, canon, again, err)
		}
		u, err := url.Parse(canon)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
			u.Scheme+"://"+u.Host != canon || u.User != nil || u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
			t.Fatalf("accepted %q as %q, which is not a scheme and a host (%v)", raw, canon, err)
		}
		for _, rejoin := range []string{raw, canon, strings.ToUpper(canon)} {
			if _, _, err := reg.Join(rejoin, 0); err != nil {
				t.Fatalf("rejoin of %q as %q refused: %v", raw, rejoin, err)
			}
		}
		if ws := reg.Workers(); len(ws) != 1 || ws[0] != canon {
			t.Fatalf("joins of %q left members %v, want [%s]", raw, ws, canon)
		}
	})
}
