//go:build unix

package wal

import (
	"os"
	"syscall"
)

// readDirNames lists the names in dir through the directory-entry system
// calls, with a buffer of its own. The os package's directory reads draw
// their buffer from a sync.Pool, and the first use of a pool after a
// garbage collection allocates, so a listing through os allocated more or
// less depending on when collections ran.
func readDirNames(dir string) ([]string, error) {
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: dir, Err: err}
	}
	defer syscall.Close(fd)
	buf := make([]byte, 8192)
	var names []string
	for {
		n, err := syscall.ReadDirent(fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &os.PathError{Op: "readdirent", Path: dir, Err: err}
		}
		if n <= 0 {
			return names, nil
		}
		_, _, names = syscall.ParseDirent(buf[:n], -1, names)
	}
}
