package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo records where and on what code a result was measured.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw a repository; Source identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}

// sourceDigest hashes the paths and contents of every Go source and
// go.mod file under root, skipping hidden directories (the build output
// among them), so two runs on the same code report the same digest.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", sum.Sum(nil))[:16]
}
