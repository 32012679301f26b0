//go:build !linux

package main

import "errors"

func reexecPinned() error { return errors.New("pinning to one CPU needs Linux") }
