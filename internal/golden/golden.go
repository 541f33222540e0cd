// Package golden pins whole-system determinism to committed SHA-256
// digests (testdata/golden/*.sha256 at the module root). A test hashes a
// canonical rendering of what it produced and calls Check; the digest file
// is written only when PIPETUNE_UPDATE_GOLDEN=1 is set, so a digest never
// changes silently.
//
// Digests are pinned on amd64 only: amd64 evaluates math.Exp and math.Log
// in assembly while other architectures use the pure-Go fallbacks, which
// differ in the last bits (ROADMAP item 1 tracks a portable math core).
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// UpdateEnv names the environment variable that rewrites digest files.
const UpdateEnv = "PIPETUNE_UPDATE_GOLDEN"

// SkipUnlessPinnedArch skips t on architectures the digests are not
// pinned for.
func SkipUnlessPinnedArch(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64 (this is %s): amd64 uses assembly math.Exp/math.Log, "+
			"other architectures the pure-Go fallback; see ROADMAP item 1", runtime.GOARCH)
	}
}

// Check compares the SHA-256 of data against the hex digest stored in
// the file at path.
func Check(t testing.TB, path string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if os.Getenv(UpdateEnv) == "1" {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (generate with %s=1)", err, UpdateEnv)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("golden %s: digest %s, want %s", path, got, w)
	}
}
