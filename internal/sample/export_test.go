package sample

// SetMeasureHook installs f as the measure hook until the returned
// function restores the previous one.
func SetMeasureHook(f func(delta int)) (restore func()) {
	prev := measureHook
	measureHook = f
	return func() { measureHook = prev }
}

// SetWarmHook installs f as the warming stage's per-batch hook until
// the returned function restores the previous one.
func SetWarmHook(f func()) (restore func()) {
	prev := warmHook
	warmHook = f
	return func() { warmHook = prev }
}
