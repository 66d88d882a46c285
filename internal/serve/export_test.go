package serve

// CheckLazySchedule exposes checkLazySchedule to the external test package,
// which can compile scenario files (internal/scenario imports serve).
var CheckLazySchedule = checkLazySchedule
