package cachetier

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openTier(t *testing.T, dir, scheme string) *DiskTier {
	t.Helper()
	dt, err := OpenDiskTier(DiskConfig{Dir: dir, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dt := openTier(t, dir, "fp-v1")
	pairs := map[string]string{
		"alpha": "first value",
		"beta":  "second",
		"gamma": "",
	}
	for k, v := range pairs {
		if !dt.Put(k, []byte(v)) {
			t.Fatalf("Put(%q) refused", k)
		}
	}
	if !dt.Put("alpha", []byte("rewritten")) {
		t.Fatal("overwrite refused")
	}
	pairs["alpha"] = "rewritten"
	check := func(dt *DiskTier, when string) {
		t.Helper()
		if n := dt.Stats().Records; n != len(pairs) {
			t.Fatalf("%s: %d records, want %d", when, n, len(pairs))
		}
		for k, v := range pairs {
			got, ok := dt.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("%s: Get(%q) = %q,%v want %q", when, k, got, ok, v)
			}
		}
	}
	check(dt, "live")
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: a fresh open rebuilds last-write-wins index from the log.
	dt2 := openTier(t, dir, "fp-v1")
	defer dt2.Close()
	check(dt2, "recovered")
	if st := dt2.Stats(); st.CorruptTails != 0 || st.SchemeDiscards != 0 {
		t.Fatalf("clean recovery flagged damage: %+v", st)
	}
}

func TestDiskTierCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	dt := openTier(t, dir, "fp-v1")
	dt.Put("keep", []byte("survives"))
	st := dt.Stats()
	goodEnd := st.Bytes
	dt.Put("torn", []byte("this record gets a flipped byte"))
	dt.Close()

	// Flip one byte inside the last record's value.
	path := filepath.Join(dir, diskLogName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, goodEnd+recHeaderLen+int64(len("torn"))+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	dt2 := openTier(t, dir, "fp-v1")
	defer dt2.Close()
	if _, ok := dt2.Get("keep"); !ok {
		t.Fatal("record before the corrupt tail was lost")
	}
	if _, ok := dt2.Get("torn"); ok {
		t.Fatal("corrupt record served")
	}
	st2 := dt2.Stats()
	if st2.CorruptTails != 1 {
		t.Fatalf("CorruptTails = %d, want 1", st2.CorruptTails)
	}
	if st2.Bytes != goodEnd {
		t.Fatalf("log not truncated at the corruption: %d bytes, want %d", st2.Bytes, goodEnd)
	}
	// The truncated tail is writable again.
	if !dt2.Put("fresh", []byte("post-recovery")) {
		t.Fatal("post-recovery Put refused")
	}
}

// TestDiskTierNonZeroFlagIsCorrupt: the flag byte is reserved and always
// written 0. A record whose flag is anything else, even under a CRC that
// matches it, is recovered as a corrupt tail and never served.
func TestDiskTierNonZeroFlagIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	dt := openTier(t, dir, "fp-v1")
	dt.Put("keep", []byte("survives"))
	goodEnd := dt.Stats().Bytes
	dt.Put("flagged", []byte("served only if the flag is ignored"))
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}

	// Set the second record's flag to 1 and recompute its CRC, so only the
	// flag is wrong.
	path := filepath.Join(dir, diskLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[goodEnd:]
	rec[4] = 1
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[4:]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dt2 := openTier(t, dir, "fp-v1")
	defer dt2.Close()
	if got, ok := dt2.Get("keep"); !ok || string(got) != "survives" {
		t.Fatalf("record before the flagged one: Get = %q, %v", got, ok)
	}
	if _, ok := dt2.Get("flagged"); ok {
		t.Fatal("a record with a non-zero flag was served")
	}
	st := dt2.Stats()
	if st.CorruptTails != 1 || st.Records != 1 || st.Bytes != goodEnd {
		t.Fatalf("stats %+v; want one corrupt tail truncated at %d with one record left", st, goodEnd)
	}
}

func TestDiskTierSchemeMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	dt := openTier(t, dir, "fp-v1")
	dt.Put("old", []byte("minted under fp-v1"))
	dt.Close()

	dt2 := openTier(t, dir, "fp-v2")
	defer dt2.Close()
	if _, ok := dt2.Get("old"); ok {
		t.Fatal("entry from a stale fingerprint scheme served — silent corruption")
	}
	st := dt2.Stats()
	if st.SchemeDiscards != 1 {
		t.Fatalf("SchemeDiscards = %d, want 1", st.SchemeDiscards)
	}
	if st.Records != 0 {
		t.Fatalf("stale log not emptied: %d records", st.Records)
	}
	dt2.Put("new", []byte("fp-v2 native"))
	if got, ok := dt2.Get("new"); !ok || string(got) != "fp-v2 native" {
		t.Fatal("reinitialized log not writable")
	}
}

func TestDiskTierStats(t *testing.T) {
	dt := openTier(t, t.TempDir(), "s")
	defer dt.Close()
	dt.Put("a", []byte("x"))
	st := dt.Stats()
	if st.Writes != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= int64(len(headerBytes("s"))) {
		t.Fatalf("Bytes = %d does not cover the record", st.Bytes)
	}
}
