#include "src/hv/guest_memory.h"

#include <algorithm>
#include <bit>

namespace nymix {

namespace {
// Process-wide creation counter for the id-less constructor, used by
// standalone tests that build a GuestMemory without an EventLoop. Sim code
// paths (VirtualMachine) pass an explicit per-loop id instead, so parallel
// shards never touch this.
uint64_t next_memory_id = 1;
}  // namespace

GuestMemory::GuestMemory(uint64_t ram_bytes) : GuestMemory(ram_bytes, next_memory_id++) {}

GuestMemory::GuestMemory(uint64_t ram_bytes, uint64_t id)
    : id_(id), total_pages_((ram_bytes + kPageSize - 1) / kPageSize), zero_pages_(total_pages_) {}

const BaseImage* GuestMemory::image() const {
  NYMIX_CHECK_MSG(image_ == nullptr || image_->mutation_count() == image_mutation_, "tampered");
  return image_;
}

void GuestMemory::MapImagePages(const BaseImage& image, uint64_t count) {
  ++generation_;
  NYMIX_CHECK(image.block_count() > 0);
  // Mapping takes only zero pages, and dirtying reaches image pages only
  // once those are gone: every mapping precedes every image page dirtied.
  count = std::min(count, zero_pages_);
  if (count > 0 && image_ == nullptr) {
    image_ = &image;
    image_mutation_ = image.mutation_count();
  }
  NYMIX_CHECK_MSG(count == 0 || this->image() == &image, "one image per memory until Wipe");
  mapped_ += count;
  zero_pages_ -= count;
}

void GuestMemory::DirtyPages(uint64_t count) {
  ++generation_;
  count = std::min(count, zero_pages_ + image_pages());
  uint64_t from_zero = std::min(count, zero_pages_);
  zero_pages_ -= from_zero;
  dirtied_ += count - from_zero;
  unique_pages_ += count;
}

std::map<uint64_t, uint64_t> GuestMemory::pages_by_content() const {
  std::vector<std::pair<uint64_t, uint64_t>> totals = ContentTotals({this});
  return std::map<uint64_t, uint64_t>(totals.begin(), totals.end());
}

void GuestMemory::Wipe() {
  uint64_t generation = generation_ + 1;
  *this = GuestMemory(total_bytes(), id_);
  generation_ = generation;
}

namespace {

// The memories of one shape and the shape's cursor through an image walk.
struct Shape {
  uint64_t mapped;
  std::map<uint64_t, uint64_t> dirtied;  // dirtied_image_pages() -> memories
  uint64_t cycles = 0;     // whole passes over the blocks...
  uint64_t remainder = 0;  // ...then blocks [0, remainder) once more
  uint64_t seen = 0;       // pages of one memory at earlier positions
};

// Appends (content, pages of all `shapes`) for every position of the
// image's content order that some shape maps, in order. A position is one
// block, held once per whole pass and once more inside the partial pass.
void AppendImageContents(const BaseImage& image, std::vector<Shape>& shapes,
                         std::vector<std::pair<uint64_t, uint64_t>>& out) {
  const BaseImage::ContentOrder& order = image.content_order();
  uint64_t blocks = image.block_count();
  std::vector<uint64_t> visit((blocks + 63) / 64, 0);  // one bit per position
  for (Shape& shape : shapes) {
    shape.cycles = shape.mapped / blocks;
    shape.remainder = shape.mapped % blocks;
    for (uint64_t block = 0; block < std::min(shape.mapped, blocks); ++block) {
      visit[order.position_of[block] / 64] |= uint64_t{1} << (order.position_of[block] % 64);
    }
  }
  for (size_t word = 0; word < visit.size(); ++word) {
    for (uint64_t bits = visit[word]; bits != 0; bits &= bits - 1) {
      const auto& [content, block] = order.blocks[word * 64 + std::countr_zero(bits)];
      uint64_t total = 0;
      for (Shape& shape : shapes) {
        uint64_t held = shape.cycles + (block < shape.remainder ? 1 : 0);
        // A memory that dirtied d pages lost the first d in content order.
        for (const auto& [d, memories] : shape.dirtied) {
          total += memories * (held - std::min(held, d > shape.seen ? d - shape.seen : 0));
        }
        shape.seen += held;
      }
      out.emplace_back(content, total);
    }
  }
}

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> ContentTotals(
    const std::vector<const GuestMemory*>& memories) {
  std::vector<std::pair<uint64_t, uint64_t>> held = {{kZeroPageContent, 0}};
  std::vector<const BaseImage*> images;
  std::vector<std::vector<Shape>> shapes;  // per entry of `images`
  for (const GuestMemory* memory : memories) {
    held[0].second += memory->zero_pages();
    if (memory->image_pages() == 0) {
      continue;
    }
    size_t i = std::find(images.begin(), images.end(), memory->image()) - images.begin();
    if (i == images.size()) {
      images.push_back(memory->image());
      shapes.emplace_back();
    }
    auto shape = std::find_if(shapes[i].begin(), shapes[i].end(), [&](const Shape& s) {
      return s.mapped == memory->mapped_image_pages();
    });
    if (shape == shapes[i].end()) {
      shape = shapes[i].insert(shape, Shape{memory->mapped_image_pages(), {}});
    }
    ++shape->dirtied[memory->dirtied_image_pages()];
  }
  for (size_t i = 0; i < images.size(); ++i) {
    AppendImageContents(*images[i], shapes[i], held);
  }
  // One image's contents follow the zero page (the smallest id) in order;
  // several images may hold the same content, so sort. Then sum duplicates.
  if (images.size() > 1) {
    std::sort(held.begin(), held.end());
  }
  std::vector<std::pair<uint64_t, uint64_t>> totals;
  for (const auto& [content, pages] : held) {
    if (!totals.empty() && totals.back().first == content) {
      totals.back().second += pages;
    } else if (pages > 0) {
      totals.emplace_back(content, pages);
    }
  }
  return totals;
}

}  // namespace nymix
