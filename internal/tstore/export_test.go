package tstore

import "os"

// RewriteUnits passes every unit in key's file under dir through mutate and
// writes the file back with fresh frames: well-formed, CRC-valid bytes,
// whatever the mutated unit describes.
func RewriteUnits(dir string, key Key, mutate func(*Unit)) error {
	path := fileName(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	d := &dec{buf: data, off: len(fileMagic)}
	d.str() // the key header
	out := &enc{buf: append([]byte{}, data[:d.off]...)}
	for d.off < len(d.buf) {
		payload, ok := readFrame(d)
		if !ok {
			break
		}
		u, err := decodeUnit(&dec{buf: payload}, key.Helpers)
		if err != nil {
			return err
		}
		mutate(u)
		frame(out, u)
	}
	return os.WriteFile(path, out.buf, 0o644)
}
