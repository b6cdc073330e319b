package election

// CodeTarget exposes the decision target in entry codes to the external
// tests.
func (d *Dedicated) CodeTarget() []byte { return d.target }
