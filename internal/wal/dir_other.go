//go:build !unix

package wal

import "os"

// ReadDirNames lists the names in dir.
func ReadDirNames(dir string) ([]string, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Readdirnames(-1)
}
