package models

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Crash-consistent checkpoint files. Two mechanisms compose:
//
//   - Atomic replace: every checkpoint write lands in a temp file in the
//     destination directory, is fsynced, and is renamed over the final
//     path. A concurrent reader (aptserve hot-reloading a freshly
//     published model) observes either the old complete file or the new
//     complete file — never a torn in-between.
//   - Version/CRC trailer: the last 16 bytes of a checkpoint are
//     [crc32(payload) | version | magic]. The CRC rejects a file a
//     non-atomic writer (or a failing disk) tore mid-write with a clear
//     error instead of a confusing gob decode failure, and the version
//     gives watchers (aptserve -watch) a cheap monotonic change signal
//     they can read without decoding the payload.
//
// Files without a trailer (pre-trailer checkpoints) still load; they just
// forgo CRC protection and version polling.

// trailerMagic marks a checkpoint that carries a version/CRC trailer.
var trailerMagic = [4]byte{'A', 'P', 'T', 'C'}

// trailerSize is crc32 (4) + version (8) + magic (4).
const trailerSize = 16

// ErrCorruptCheckpoint is returned when a checkpoint's CRC trailer does
// not match its payload — a torn or corrupt write — or when a decoded
// record cannot describe its parameter (e.g. a truncated packed payload).
var ErrCorruptCheckpoint = errors.New("models: corrupt checkpoint (CRC mismatch, torn write or invalid record)")

// appendTrailer appends the version/CRC trailer for payload to buf.
func appendTrailer(buf *bytes.Buffer, version uint64) {
	crc := crc32.ChecksumIEEE(buf.Bytes())
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint32(tr[0:4], crc)
	binary.LittleEndian.PutUint64(tr[4:12], version)
	copy(tr[12:16], trailerMagic[:])
	buf.Write(tr[:])
}

// splitTrailer detects and validates a trailer on data. It returns the
// payload with the trailer stripped, the version, and whether a trailer
// was present. A present-but-mismatched CRC returns ErrCorruptCheckpoint.
func splitTrailer(data []byte) (payload []byte, version uint64, ok bool, err error) {
	if len(data) < trailerSize || !bytes.Equal(data[len(data)-4:], trailerMagic[:]) {
		return data, 0, false, nil
	}
	tr := data[len(data)-trailerSize:]
	payload = data[:len(data)-trailerSize]
	version = binary.LittleEndian.Uint64(tr[4:12])
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tr[0:4]) {
		return nil, 0, true, ErrCorruptCheckpoint
	}
	return payload, version, true, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, fsyncing before the rename so a crash between
// the two leaves either the old file or the complete new one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".apt-tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SaveFileAtomic writes m as a bit-packed checkpoint to path with a
// version/CRC trailer, atomically (temp file + fsync + rename). It is the
// publishing-side counterpart of LoadAutoFile: a serving process polling
// path (aptserve -watch) can never observe a torn file, and the version
// in the trailer tells it whether the file changed without decoding it.
func SaveFileAtomic(path string, m *Model, version uint64) error {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return err
	}
	appendTrailer(&buf, version)
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("models: write %s: %w", path, err)
	}
	return nil
}

// CheckpointVersion reads the version from a checkpoint's trailer without
// decoding the payload — the cheap polling primitive behind aptserve
// -watch. It returns ok=false (and version 0) for legacy checkpoints
// written without a trailer; watchers fall back to mtime+size for those.
func CheckpointVersion(path string) (version uint64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	if fi.Size() < trailerSize {
		return 0, false, nil
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], fi.Size()-trailerSize); err != nil && err != io.EOF {
		return 0, false, err
	}
	if !bytes.Equal(tr[12:16], trailerMagic[:]) {
		return 0, false, nil
	}
	return binary.LittleEndian.Uint64(tr[4:12]), true, nil
}
