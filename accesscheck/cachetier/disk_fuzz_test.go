package cachetier

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

// diskRecord is one record a fuzzed script appended: where it ends in the
// log, and the key and value replaying it sets.
type diskRecord struct {
	end int64
	key string
	val []byte
}

// FuzzDiskTierRecover: a disk tier that Puts a fuzz-chosen script, is
// closed, and has one byte of its log flipped (xor mask) or the log
// truncated at a fuzz-chosen offset must reopen without panicking to
// exactly the index a replay of the records that end before the damaged
// byte gives: a damaged record and everything after it are dropped, never
// served. Reopening the recovered log gives that index again, and a record
// appended after recovery survives the reopen. Seeds live in
// testdata/fuzz/FuzzDiskTierRecover.
//
// Script bytes: every byte b puts key b%6 with the next (b>>3)&0xf bytes
// as its value (bit 0x80 selects nothing: the log is only ever added to);
// key 5 is the empty key, which Put refuses.
func FuzzDiskTierRecover(f *testing.F) {
	f.Add([]byte{0x08, 'a', 0x11, 'b', 'c', 0x81, 0x02}, false, uint32(40), byte(0xff))
	f.Add([]byte{0x08, 'a', 0x09, 'b', 0x80}, true, uint32(30), byte(0))
	prev := log.Writer()
	log.SetOutput(io.Discard) // every damaged open logs its truncation
	f.Cleanup(func() { log.SetOutput(prev) })
	f.Fuzz(func(t *testing.T, script []byte, truncate bool, at uint32, mask byte) {
		dir := t.TempDir()
		const scheme = "fp-fuzz"
		dt := openTier(t, dir, scheme)
		keys := []string{"k0", "k1", "k2", "k3", "k4", ""}
		var recs []diskRecord
		for i := 0; i < len(script); {
			b := script[i]
			i++
			n := min(int(b>>3&0xf), len(script)-i)
			rec := diskRecord{key: keys[b%6], val: script[i : i+n]}
			i += n
			if !dt.Put(rec.key, rec.val) {
				continue
			}
			rec.end = dt.Stats().Bytes
			recs = append(recs, rec)
		}
		if err := dt.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, diskLogName)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var damaged int64
		if truncate {
			damaged = int64(at) % (info.Size() + 1)
			err = os.Truncate(path, damaged)
		} else {
			damaged = int64(at) % info.Size()
			err = flipByte(path, damaged, mask)
		}
		if err != nil {
			t.Fatal(err)
		}

		want := map[string][]byte{}
		for _, r := range recs {
			if r.end > damaged {
				break
			}
			want[r.key] = r.val
		}
		dt = openTier(t, dir, scheme)
		sameIndex(t, dt, keys, want, "recovered")
		if err := dt.Close(); err != nil {
			t.Fatal(err)
		}
		dt = openTier(t, dir, scheme)
		sameIndex(t, dt, keys, want, "reopened")
		if !dt.Put("k0", []byte("after recovery")) {
			t.Fatal("Put after recovery refused")
		}
		want["k0"] = []byte("after recovery")
		if err := dt.Close(); err != nil {
			t.Fatal(err)
		}
		dt = openTier(t, dir, scheme)
		defer dt.Close()
		sameIndex(t, dt, keys, want, "written after recovery and reopened")
		if st := dt.Stats(); st.CorruptTails != 0 || st.SchemeDiscards != 0 {
			t.Fatalf("a log recovered and written cleanly reopened with damage: %+v", st)
		}
	})
}

// flipByte xors the byte at off in the file with mask (0xff when mask is
// zero, so the byte always changes).
func flipByte(path string, off int64, mask byte) error {
	if mask == 0 {
		mask = 0xff
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		f.Close()
		return err
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sameIndex fails unless the tier holds exactly want over keys.
func sameIndex(t *testing.T, dt *DiskTier, keys []string, want map[string][]byte, when string) {
	t.Helper()
	if n := dt.Stats().Records; n != len(want) {
		t.Fatalf("%s: %d records, want %d (%q)", when, n, len(want), want)
	}
	for _, k := range keys {
		got, ok := dt.Get(k)
		w, wok := want[k]
		if ok != wok || string(got) != string(w) {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q, %v", when, k, got, ok, w, wok)
		}
	}
}
