package serve

// KeptSteps reports how many first-step answer values e keeps.
func KeptSteps(e *Engine) int { return e.est.Kept() }
