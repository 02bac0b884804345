package lib

func useTestOnly() {
	TestOnly()
	unexported()
}
