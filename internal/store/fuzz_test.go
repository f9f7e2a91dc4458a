package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzParseManifest fuzzes the one boundary where peer bytes enter a
// store: OpenStaging, the first step of the only install path. Every
// input must either be rejected with an error wrapping ErrVerify before
// any staging directory exists, or open a staging area whose work list
// is exactly the manifest's segments. Each input is tried as-is and
// re-signed (its first line given a matching checksum), so mutations
// reach the manifest body instead of dying at the checksum.
func FuzzParseManifest(f *testing.F) {
	src := open(f, f.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	if _, err := src.Save(corpus(f), "fuzz seed"); err != nil {
		f.Fatal(err)
	}
	mb, _, err := src.ExportManifest(0)
	if err != nil {
		f.Fatal(err)
	}
	src.Close()
	f.Add(mb)
	f.Add(mb[:len(mb)/2])
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"version":1,"codec":1,"generation":1,"segments":[{"name":"../seg-0000.dat"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resign(data)} {
			checkOpenStaging(t, in)
		}
	})
}

// resign replaces data's checksum line with the SHA-256 of its first
// line, the way Save signs a manifest.
func resign(data []byte) []byte {
	body, _, _ := bytes.Cut(data, []byte("\n"))
	sum := sha256.Sum256(body)
	return append(append(body[:len(body):len(body)], '\n'), hex.EncodeToString(sum[:])+"\n"...)
}

func checkOpenStaging(t *testing.T, mb []byte) {
	dir := t.TempDir()
	st := open(t, dir)
	defer st.Close()
	stg, err := st.OpenStaging(mb)
	if err != nil {
		if !errors.Is(err, ErrVerify) {
			t.Fatalf("OpenStaging on a fresh store = %v, want ErrVerify", err)
		}
		if _, serr := os.Stat(filepath.Join(dir, stagingRootName)); !os.IsNotExist(serr) {
			t.Fatalf("rejected manifest left a staging directory behind (stat: %v)", serr)
		}
		return
	}
	defer stg.Close()
	gi, err := ParseManifest(mb)
	if err != nil {
		t.Fatalf("OpenStaging accepted a manifest ParseManifest rejects: %v", err)
	}
	if got := stg.Missing(); !slices.Equal(got, gi.Segments) {
		t.Fatalf("Missing() = %+v, want the manifest's segments %+v", got, gi.Segments)
	}
}

// FuzzParseJournal: parseJournal never panics on bytes left after a
// crash, and what it accepts re-encodes to a journal it reads back
// identically.
func FuzzParseJournal(f *testing.F) {
	var buf bytes.Buffer
	for _, e := range []journalEntry{
		{Type: "begin", Generation: 7, ManifestSHA256: "abc"},
		{Type: "segment", Name: "seg-0000.dat", SHA256: "def", Bytes: 42, Origin: "fetched"},
	} {
		if err := appendJournalLine(&buf, e); err != nil {
			f.Fatal(err)
		}
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append([]byte("junk\n"), good...))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		first := parseJournal(data)
		var enc bytes.Buffer
		for _, e := range first {
			if err := appendJournalLine(&enc, e); err != nil {
				t.Fatalf("re-encoding %+v: %v", e, err)
			}
		}
		if again := parseJournal(enc.Bytes()); !reflect.DeepEqual(again, first) {
			t.Fatalf("journal round trip changed entries:\n got %+v\nwant %+v", again, first)
		}
	})
}
