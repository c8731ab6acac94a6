// Test helper: a plain switched load (off plus one powered state) as an
// activity-state component, for suites that need a fixed draw to switch
// on and off rather than a real device (docs/ENERGY.md).
#pragma once

#include <string>
#include <utility>

#include "energy/component_model.h"
#include "util/units.h"

namespace gw::test {

[[nodiscard]] inline energy::ComponentSpec switched_load(std::string name,
                                                         util::Watts draw) {
  energy::ComponentSpec spec;
  spec.name = std::move(name);
  spec.states.push_back({"off", util::Watts{0.0}, 0.0});
  spec.states.push_back({"on", draw, 0.0});
  return spec;
}

}  // namespace gw::test
