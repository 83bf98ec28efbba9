package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"runtime/pprof"
	"testing"
)

// FuzzProfileParse feeds arbitrary bytes to Parse, gzip-wrapped or raw: it
// may reject them but must never panic. The corpus is seeded with a live
// heap profile as runtime/pprof writes it (gzipped) and gunzipped, with
// truncations of both, and with the hand-built test profile.
func FuzzProfileParse(f *testing.F) {
	// A fresh test binary has allocated too little for the heap profile to
	// hold a sample; retain ~4 MiB (about eight samples at the default
	// MemProfileRate) and collect, so the profile carries samples,
	// locations and functions.
	keep := make([][]byte, 64)
	for i := range keep {
		keep[i] = make([]byte, 64<<10)
	}
	runtime.GC()
	runtime.KeepAlive(keep)
	var gz bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&gz, 0); err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{gz.Bytes(), raw, buildTestProfile()} {
		// At most ~64 cuts per seed keeps the seed corpus quick to replay.
		step := len(seed)/64 + 1
		for cut := 0; cut < len(seed); cut += step {
			f.Add(seed[:cut])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Parse(data)
	})
}
