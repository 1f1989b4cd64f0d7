package expcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEncodeDecodeEntryRoundTrip pins the wire contract: EncodeEntry
// bytes decode back to the same result, and are byte-identical to what
// the disk cache writes — the property that makes a fleet-assembled
// cache directory diffable against a solo run's.
func TestEncodeDecodeEntryRoundTrip(t *testing.T) {
	fp := testFingerprint(17)
	want := testResult(5)
	data, err := EncodeEntry(fp, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data, fp.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}

	dir := t.TempDir()
	c := New(dir)
	if err := c.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(dir, fp.String()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, data) {
		t.Errorf("EncodeEntry bytes differ from the disk cache's:\n wire %s\n disk %s", data, disk)
	}
}

// TestDecodeEntryNamedErrors: every failure class carries its named
// error, assertable with errors.Is — the contract the dispatch
// coordinator's upload rejections are built on.
func TestDecodeEntryNamedErrors(t *testing.T) {
	fp := testFingerprint(18)
	valid, err := EncodeEntry(fp, testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		fp   string
		want error
	}{
		{"garbage", []byte("{{{"), fp.String(), ErrEntryUnparsable},
		{"empty", nil, fp.String(), ErrEntryUnparsable},
		{"format", mutateEntry(t, valid, func(e *entry) { e.Format++ }), fp.String(), ErrEntryFormat},
		{"engine", mutateEntry(t, valid, func(e *entry) { e.Engine++ }), fp.String(), ErrEntryEngine},
		{"renamed", valid, testFingerprint(99).String(), ErrEntryFingerprint},
		// Valid stamps but no result payload: hand-crafted garbage that
		// the pre-pointer decode accepted as a zero result. Found by the
		// fuzz corpus; must be rejected, not cached.
		{"no-result", mutateEntry(t, valid, func(e *entry) { e.Result = nil }), fp.String(), ErrEntryNoResult},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeEntry(tc.data, tc.fp); !errors.Is(err, tc.want) {
				t.Errorf("DecodeEntry error = %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

// TestDirStore exercises the storage seam: puts land atomically as
// entry files a Cache can serve, list order is ascending, and malformed
// keys are rejected before touching the filesystem.
func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	s := NewDirStore(dir)

	if fps, err := s.ListEntries(); err != nil || len(fps) != 0 {
		t.Fatalf("fresh store lists %v, %v", fps, err)
	}
	if _, ok, err := s.GetEntry(testFingerprint(1).String()); ok || err != nil {
		t.Fatalf("fresh store served an entry: ok=%v err=%v", ok, err)
	}

	// Puts round-trip and list in ascending fingerprint order.
	var fps []string
	for _, seed := range []uint64{7, 3} {
		fp := testFingerprint(seed)
		data, err := EncodeEntry(fp, testResult(int64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(fp.String(), data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp.String())
	}
	if fps[0] > fps[1] {
		fps[0], fps[1] = fps[1], fps[0]
	}
	got, err := s.ListEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fps) {
		t.Errorf("ListEntries = %v, want %v", got, fps)
	}

	// A store-written entry is a disk hit for a Cache over the same dir.
	fp := testFingerprint(7)
	c := New(dir)
	if res, ok := c.Get(fp); !ok || res.Cycles != testResult(7).Cycles {
		t.Errorf("cache over store dir missed: ok=%v res=%+v", ok, res)
	}

	// Bad keys never touch the filesystem.
	if err := s.PutEntry("../escape", []byte("x")); err == nil {
		t.Error("PutEntry accepted a non-fingerprint key")
	}
	if _, ok, err := s.GetEntry("../escape"); ok || err != nil {
		t.Errorf("GetEntry on a bad key: ok=%v err=%v", ok, err)
	}

	// Non-entry files (a manifest left by an older build, temp droppings)
	// are invisible.
	if err := os.WriteFile(filepath.Join(dir, "manifest-1of1.json"), []byte("{}"), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err = s.ListEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fps) {
		t.Errorf("ListEntries after manifest write = %v, want %v", got, fps)
	}
}
