// Package sdk stands for pkg/..., the public API, which is out of scope.
package sdk

func Public() {}
