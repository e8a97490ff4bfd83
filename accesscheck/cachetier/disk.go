package cachetier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
)

// Disk-tier persistence format (EMBANKS-style append-only segment log
// with an in-memory index):
//
//	header:  magic "ACCTIER1" | u32 format version | u32 len | scheme bytes
//	record:  u32 crc | u8 flag | u32 keyLen | u32 valLen | key | val
//
// all integers little-endian; crc is CRC-32 (IEEE) over everything
// after it (flag through val). The flag byte is reserved and must be 0:
// a record with any other flag is corrupt. Records are only ever
// appended, and a key's last record wins. Recovery is a sequential scan
// rebuilding that index; the first corrupt or short record truncates the
// log there — loudly — so a torn tail from a crash can never resurrect
// as an answer. The scheme string versions the log by the *fingerprint
// scheme* of the keys: a log written under an older scheme is discarded
// loudly at open, because serving it under new keys would be silent
// corruption. There is no compaction: the log grows by overwrites until
// discarded by a scheme bump (result records are small and exact-only
// admission keeps the write rate low; compaction is a follow-on, not a
// correctness need).
const (
	diskMagic         = "ACCTIER1"
	diskFormatVersion = 1
	diskLogName       = "segments.log"

	recHeaderLen = 4 + 1 + 4 + 4
	maxKeyLen    = 1 << 20
	maxValLen    = 1 << 26
)

// DiskConfig configures OpenDiskTier.
type DiskConfig struct {
	// Dir is the cache directory; it is created if absent and holds
	// one segments.log.
	Dir string
	// Scheme tags the log with the fingerprint scheme its keys were
	// minted under (accesscheck.FingerprintSchemeVersion). A log
	// carrying a different tag is discarded at open.
	Scheme string
}

// DiskStats is a point-in-time view of a DiskTier.
type DiskStats struct {
	Records int   // live index entries
	Bytes   int64 // log file size, header included
	Writes  uint64
	// CorruptTails counts boot scans that found and truncated a
	// corrupt tail; SchemeDiscards counts whole logs discarded for a
	// stale scheme or format.
	CorruptTails   uint64
	SchemeDiscards uint64
}

type diskLoc struct {
	off int64 // offset of the value bytes
	n   int   // value length
}

// DiskTier is the persistent Store: an append-only CRC-checked log
// plus an in-memory key → location index rebuilt by a boot scan.
// Writes append under one mutex; reads ReadAt committed offsets
// outside it. A write error degrades the tier to refusing that Put
// (the caller sees a cache miss later) rather than failing the check.
type DiskTier struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	index map[string]diskLoc

	writes, corruptTails, schemeDiscards uint64 // under mu
}

// OpenDiskTier opens (creating if needed) the segment log in cfg.Dir
// and recovers its index. A log with a mismatched magic, format
// version, or fingerprint scheme is discarded — loudly, via the
// standard logger — and reinitialized empty.
func OpenDiskTier(cfg DiskConfig) (*DiskTier, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cachetier: disk tier needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachetier: %w", err)
	}
	path := filepath.Join(cfg.Dir, diskLogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cachetier: %w", err)
	}
	t := &DiskTier{f: f, index: make(map[string]diskLoc)}
	if err := t.recover(cfg.Scheme, path); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func headerBytes(scheme string) []byte {
	h := make([]byte, 0, len(diskMagic)+8+len(scheme))
	h = append(h, diskMagic...)
	h = binary.LittleEndian.AppendUint32(h, diskFormatVersion)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(scheme)))
	h = append(h, scheme...)
	return h
}

// recover validates the header and scans the records into the index,
// truncating at the first corruption. Called once from OpenDiskTier,
// before the tier is shared, but takes the lock anyway for form.
func (t *DiskTier) recover(scheme, path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	st, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("cachetier: %w", err)
	}
	hdr := headerBytes(scheme)

	reinit := func(why string) error {
		if st.Size() > 0 {
			log.Printf("cachetier: DISCARDING disk tier %s (%d bytes): %s", path, st.Size(), why)
			t.schemeDiscards++
		}
		if err := t.f.Truncate(0); err != nil {
			return fmt.Errorf("cachetier: %w", err)
		}
		if _, err := t.f.WriteAt(hdr, 0); err != nil {
			return fmt.Errorf("cachetier: %w", err)
		}
		t.size = int64(len(hdr))
		return nil
	}

	if st.Size() < int64(len(hdr)) {
		return reinit("missing or short header")
	}
	got := make([]byte, len(hdr))
	if _, err := t.f.ReadAt(got, 0); err != nil {
		return fmt.Errorf("cachetier: %w", err)
	}
	if string(got) != string(hdr) {
		return reinit(fmt.Sprintf("header mismatch (want scheme %q, format v%d)", scheme, diskFormatVersion))
	}

	// Header checks out: scan records.
	off := int64(len(hdr))
	end := st.Size()
	truncateAt := int64(-1)
	var why string
	buf := make([]byte, recHeaderLen)
	for off < end {
		if _, err := t.f.ReadAt(buf, off); err != nil {
			truncateAt, why = off, "short record header"
			break
		}
		crc := binary.LittleEndian.Uint32(buf[0:4])
		flag := buf[4]
		klen := int(binary.LittleEndian.Uint32(buf[5:9]))
		vlen := int(binary.LittleEndian.Uint32(buf[9:13]))
		if flag != 0 || klen == 0 || klen > maxKeyLen || vlen > maxValLen ||
			off+int64(recHeaderLen)+int64(klen)+int64(vlen) > end {
			truncateAt, why = off, "implausible record header"
			break
		}
		body := make([]byte, 1+8+klen+vlen)
		copy(body, buf[4:recHeaderLen])
		if _, err := t.f.ReadAt(body[9:], off+recHeaderLen); err != nil {
			truncateAt, why = off, "short record body"
			break
		}
		if crc32.ChecksumIEEE(body) != crc {
			truncateAt, why = off, "CRC mismatch"
			break
		}
		t.index[string(body[9:9+klen])] = diskLoc{off: off + recHeaderLen + int64(klen), n: vlen}
		off += int64(recHeaderLen) + int64(klen) + int64(vlen)
	}
	if truncateAt >= 0 {
		log.Printf("cachetier: disk tier %s: %s at offset %d — truncating %d byte(s) of corrupt tail",
			path, why, truncateAt, end-truncateAt)
		t.corruptTails++
		if err := t.f.Truncate(truncateAt); err != nil {
			return fmt.Errorf("cachetier: %w", err)
		}
		off = truncateAt
	}
	t.size = off
	return nil
}

// Get returns the persisted value for key. The read happens at a
// committed offset outside the lock; appends never move committed
// bytes, so the racing window is benign.
func (t *DiskTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	loc, ok := t.index[key]
	t.mu.Unlock()
	if !ok {
		return nil, false
	}
	val := make([]byte, loc.n)
	if _, err := t.f.ReadAt(val, loc.off); err != nil {
		return nil, false
	}
	return val, true
}

// Put appends a record for key and points the index at it (last write
// wins). A failed append logs once and reports false — the tier
// degrades to a miss, it never fails the caller.
func (t *DiskTier) Put(key string, val []byte) bool {
	if key == "" || len(key) > maxKeyLen || len(val) > maxValLen {
		return false
	}
	rec := encode(key, val)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.f.WriteAt(rec, t.size); err != nil {
		log.Printf("cachetier: disk tier write failed, entry dropped: %v", err)
		return false
	}
	t.index[key] = diskLoc{off: t.size + recHeaderLen + int64(len(key)), n: len(val)}
	t.size += int64(len(rec))
	t.writes++
	return true
}

// encode frames one record; its flag byte stays 0.
func encode(key string, val []byte) []byte {
	rec := make([]byte, recHeaderLen+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[5:9], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[9:13], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[4:]))
	return rec
}

// Close syncs and closes the log.
func (t *DiskTier) Close() error {
	if err := t.f.Sync(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// Stats snapshots the tier counters.
func (t *DiskTier) Stats() DiskStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return DiskStats{
		Records:        len(t.index),
		Bytes:          t.size,
		Writes:         t.writes,
		CorruptTails:   t.corruptTails,
		SchemeDiscards: t.schemeDiscards,
	}
}

var _ Store = (*DiskTier)(nil)
var _ io.Closer = (*DiskTier)(nil)
